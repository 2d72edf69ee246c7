package coherence

import "testing"

func TestBitset(t *testing.T) {
	b := Bitset{w: make([]uint64, 3)} // ids [0, 192)
	for _, id := range []int{0, 63, 64, 129} {
		b.Set(id)
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Fatal("membership wrong")
	}
	var got []int
	b.ForEach(func(id int) { got = append(got, id) })
	want := []int{0, 63, 64, 129}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v", got)
		}
	}
	b.Clear(63)
	if b.Has(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}
