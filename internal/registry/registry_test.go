package registry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type entry struct {
	name    string
	aliases []string
}

func (e entry) Name() string      { return e.name }
func (e entry) Aliases() []string { return e.aliases }

type handle uint8

// base returns a registry holding Mesh (no aliases) and Flattened
// Butterfly (alias "fbfly") as handles 0 and 1, then fill entries
// "E<i>" (alias "e-<i>") as handles 2, 3, ...
func base(t *testing.T, fill int) *Registry[handle, entry] {
	t.Helper()
	r := New[handle, entry]("test", "design")
	Must(r.Register(entry{"Mesh", nil}))
	Must(r.Register(entry{"Flattened Butterfly", []string{"fbfly"}}))
	for i := 0; i < fill; i++ {
		Must(r.Register(entry{fmt.Sprintf("E%d", i), []string{fmt.Sprintf("e-%d", i)}}))
	}
	return r
}

// TestRegisterRules drives one registration per case against the base
// registry, filled with fill extra entries. A rejected registration must
// leave every key and the listing as they were; an accepted one takes
// the next handle, appends to every listing in order, and resolves from
// each of its spellings.
func TestRegisterRules(t *testing.T) {
	cases := []struct {
		name    string
		fill    int
		e       entry
		wantErr string // "" = accepted
	}{
		{"empty name", 0, entry{"", nil}, "needs a name"},
		{"blank name", 0, entry{" \t", []string{"blank"}}, "needs a name"},
		{"empty alias", 0, entry{"Ring", []string{"ring-1d", ""}}, "empty alias"},
		{"blank alias", 0, entry{"Ring", []string{"  "}}, "empty alias"},
		{"name repeats a name", 0, entry{"  MESH ", nil}, `"mesh" already registered by Mesh`},
		{"name repeats an alias", 0, entry{"FBfly", nil}, `"fbfly" already registered by Flattened Butterfly`},
		{"alias repeats a name", 0, entry{"Ring", []string{" flattened BUTTERFLY"}}, `"flattened butterfly" already registered`},
		{"alias repeats an alias", 0, entry{"Ring", []string{"ring-1d", "FBFLY "}}, `"fbfly" already registered`},
		{"late collision adds no keys", 0, entry{"Fresh", []string{"fresh-alias", "mesh"}}, `"mesh" already registered`},
		{"one past the handle space", 254, entry{"Overflow", []string{"overflow-alias"}}, "registry full"},
		{"alias repeats own name", 0, entry{"Ring", []string{"ring", " RING "}}, ""},
		{"alias repeated", 0, entry{"Ring", []string{"r", "R"}}, ""},
		{"distinct", 0, entry{"Ring", []string{"ring-1d"}}, ""},
		{"last handle", 253, entry{"Ring", []string{"ring-1d"}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base(t, tc.fill)
			before := r.Names()
			h, err := r.Register(tc.e)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Register(%+v) = %v, want an error containing %q", tc.e, err, tc.wantErr)
				}
				if got := r.Names(); !reflect.DeepEqual(got, before) {
					t.Fatalf("rejected registration changed the listing: %v", got)
				}
				untouched := base(t, tc.fill)
				for _, s := range append([]string{tc.e.name}, tc.e.aliases...) {
					wantH, _, wantOK := untouched.Lookup(s)
					if h, _, ok := r.Lookup(s); h != wantH || ok != wantOK {
						t.Fatalf("rejected registration changed key %q: (%d, %v), want (%d, %v)", s, h, ok, wantH, wantOK)
					}
				}
				return
			}
			if err != nil || int(h) != len(before) {
				t.Fatalf("Register(%+v) = (%d, %v), want handle %d", tc.e, h, err, len(before))
			}
			if got := r.Names(); !reflect.DeepEqual(got, append(before, tc.e.name)) {
				t.Fatalf("Names() after Register = %v", got)
			}
			all, hs := r.All(), r.Handles()
			for i, h := range hs {
				v, err := r.Get(h)
				if int(h) != i || err != nil || !reflect.DeepEqual(v, all[i]) || r.Name(h) != v.name {
					t.Fatalf("handle %d: Get = (%+v, %v), All()[%d] = %+v, Name = %q", h, v, err, i, all[i], r.Name(h))
				}
			}
			for _, s := range append([]string{tc.e.name}, tc.e.aliases...) {
				if got, v, ok := r.Lookup(s); !ok || got != h || v.name != tc.e.name {
					t.Fatalf("Lookup(%q) = (%d, %+v, %v), want handle %d", s, got, v, ok, h)
				}
			}
		})
	}
}

// TestLookupErrors pins the messages and fallbacks for unregistered
// handles and spellings.
func TestLookupErrors(t *testing.T) {
	r := base(t, 0)
	if _, err := r.Get(2); err == nil || err.Error() != "test: design 2 is not registered" {
		t.Fatalf("Get(2) = %v", err)
	}
	if got := r.Name(200); got != "registry.handle(200)" {
		t.Fatalf("Name(200) = %q", got)
	}
	_, err := r.Parse("Hypercube")
	if want := `test: unknown design "Hypercube" (want mesh | flattened butterfly)`; err == nil || err.Error() != want {
		t.Fatalf("Parse error = %v, want %s", err, want)
	}
	h := handle(1)
	if err := r.Unmarshal(&h, []byte("hypercube")); err == nil || h != 1 {
		t.Fatalf("failed Unmarshal = %v, left handle %d, want an error and 1", err, h)
	}
	if err := r.Unmarshal(&h, []byte("MESH")); err != nil || h != 0 {
		t.Fatalf("Unmarshal(MESH) = %v, handle %d", err, h)
	}
}

// TestConcurrentRegisterAndLookup resolves entries from several
// goroutines while another registers, so `go test -race` patrols the
// locking.
func TestConcurrentRegisterAndLookup(t *testing.T) {
	r := base(t, 0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				if h, _, ok := r.Lookup("fbfly"); !ok || h != 1 {
					t.Errorf("Lookup(fbfly) = (%d, %v)", h, ok)
					return
				}
				if _, err := r.Get(0); err != nil {
					t.Error(err)
					return
				}
				_ = r.Name(handle(j % 8))
				_, _ = r.Parse("ring-3")
				_ = r.All()
				_ = r.Names()
				_ = r.Handles()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			if _, err := r.Register(entry{fmt.Sprintf("Ring %d", i), []string{fmt.Sprintf("ring-%d", i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	for i := 0; i < 50; i++ {
		if h, err := r.Parse(fmt.Sprintf("ring %d", i)); err != nil || int(h) != i+2 {
			t.Fatalf("Parse(ring %d) = (%d, %v), want handle %d", i, h, err, i+2)
		}
	}
}
