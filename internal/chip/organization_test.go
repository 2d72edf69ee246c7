package chip

import (
	"strings"
	"sync"
	"testing"

	"nocout/internal/physic"
	"nocout/internal/registry"
)

// stubOrg is a registrable organization that reuses the mesh's behaviour.
type stubOrg struct {
	name    string
	aliases []string
}

func (s stubOrg) Name() string          { return s.name }
func (s stubOrg) Aliases() []string     { return s.aliases }
func (s stubOrg) DefaultConfig() Config { return Table1Config() }
func (s stubOrg) Build(cfg Config) *Fabric {
	return meshOrg{}.Build(cfg)
}
func (s stubOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return meshOrg{}.AreaModel(cfg)
}

// resetRegistry swaps in a copy of the global registry, rebuilt in
// registration order so every handle is unchanged, and restores the
// original on cleanup, so registration tests cannot leak designs into
// other tests.
func resetRegistry(t *testing.T) {
	t.Helper()
	saved := orgs
	orgs = registry.New[Design, Organization]("chip", "design")
	for _, o := range saved.All() {
		if _, err := orgs.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { orgs = saved })
}

func TestRegisterOrganization(t *testing.T) {
	resetRegistry(t)

	if _, err := RegisterOrganization(stubOrg{name: ""}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Mesh"}); err == nil {
		t.Fatal("duplicate of a builtin name must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{"ideal"}}); err == nil {
		t.Fatal("alias colliding with a builtin must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{""}}); err == nil {
		t.Fatal("empty alias must be rejected")
	}

	d, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{"ring-1d"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "Ring" {
		t.Fatalf("String() = %q", d.String())
	}
	for _, s := range []string{"Ring", "ring", "ring-1d"} {
		got, err := ParseDesign(s)
		if err != nil || got != d {
			t.Fatalf("ParseDesign(%q) = (%v, %v), want %v", s, got, err, d)
		}
	}
	if _, err := RegisterOrganization(stubOrg{name: "ring"}); err == nil {
		t.Fatal("names are case-insensitively unique")
	}

	// The registered design is a first-class citizen of the build path.
	cfg := DefaultConfig(d)
	if cfg.Design != d || cfg.Cores != 64 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	if _, err := OrganizationOf(d); err != nil {
		t.Fatal(err)
	}
}

func TestOrganizationOfUnknown(t *testing.T) {
	if _, err := OrganizationOf(Design(200)); err == nil {
		t.Fatal("unregistered design must be a hard error")
	}
	if _, err := ParseDesign("warp-drive"); err == nil {
		t.Fatal("unknown name must error")
	} else if !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("error should list known designs: %v", err)
	}
}

// TestRegistryConcurrentUse exercises the registry the way the experiment
// engine does — many goroutines resolving designs while another registers —
// so `go test -race` patrols the locking.
func TestRegistryConcurrentUse(t *testing.T) {
	resetRegistry(t)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				if _, err := ParseDesign("mesh"); err != nil {
					t.Error(err)
					return
				}
				_ = NOCOut.String()
				if _, err := OrganizationOf(FBfly); err != nil {
					t.Error(err)
					return
				}
				_ = Designs()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := RegisterOrganization(stubOrg{name: "Concurrent Ring"}); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()

	if _, err := ParseDesign("concurrent ring"); err != nil {
		t.Fatal(err)
	}
}
