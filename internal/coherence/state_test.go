package coherence

import (
	"testing"

	"nocout/internal/ckpt"
)

// TestBankLoadStateRejectsHostileDirectory crafts bank checkpoints whose
// directory names a core the chip does not have — an owner out of range,
// or a sharer bit at or beyond NumCores — and checks LoadState reports
// corruption instead of restoring a state that would panic or misroute on
// the first forward or invalidation.
func TestBankLoadStateRejectsHostileDirectory(t *testing.T) {
	for _, cores := range []int{16, 64, 70} {
		build := func() *Bank {
			return NewBank(0, 0, nil, BankConfig{SizeBytes: 64 * 64, Ways: 4, NumCores: cores}, nil, nil, nil)
		}
		load := func(mutate func(b *Bank)) error {
			b := build()
			for line := uint64(0); line < 8; line++ {
				b.PrewarmOwned(line, int(line)%cores)
			}
			slot, _ := b.arr.Probe(b.aline(3))
			b.owner[slot] = -1
			b.dirVec(slot).Set(cores - 1)
			mutate(b)
			var e ckpt.Enc
			b.SaveState(&e)
			d := ckpt.NewDec(e.Bytes())
			build().LoadState(d)
			return d.Err()
		}
		if err := load(func(*Bank) {}); err != nil {
			t.Fatalf("%d cores: clean directory rejected: %v", cores, err)
		}
		hostile := map[string]func(b *Bank){
			"owner == NumCores": func(b *Bank) { b.owner[5] = int32(cores) },
			"owner 99":          func(b *Bank) { b.owner[0] = 99 },
			"owner -2":          func(b *Bank) { b.owner[1] = -2 },
		}
		if cores%64 != 0 {
			hostile["sharer == NumCores"] = func(b *Bank) { b.dirVec(2).w[cores/64] |= 1 << (cores % 64) }
			hostile["top sharer bit"] = func(b *Bank) { b.dirVec(7).w[b.words-1] |= 1 << 63 }
		}
		for name, mutate := range hostile {
			if err := load(mutate); err == nil {
				t.Errorf("%d cores: LoadState accepted %s", cores, name)
			}
		}
	}
}
