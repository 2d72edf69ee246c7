package noc_test

import (
	"testing"

	_ "nocout" // registers the Torus, CMesh and Crossbar designs
	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/workload"
)

// TestRouteMemoMatchesRouteFunc runs a short point on a 16-core chip of
// every registered design, then checks that every memoized (router,
// destination) route equals a fresh RouteFunc evaluation: memoization is
// sound only because each builder's RouteFunc is a pure function of the
// destination.
func TestRouteMemoMatchesRouteFunc(t *testing.T) {
	w, err := workload.Parse("Data Serving")
	if err != nil {
		t.Fatal(err)
	}
	for i, org := range chip.Organizations() {
		cfg := chip.DefaultConfig(chip.Design(i))
		cfg.Cores = 16
		t.Run(org.Name(), func(t *testing.T) {
			c := chip.New(cfg, w)
			c.PrewarmCaches()
			c.Warmup(1000)
			c.Run(2000)
			rn, ok := c.Net.(interface{ RN() *noc.RouterNetwork })
			if !ok {
				t.Skip("wire-only fabric: no routers")
			}
			memoized := 0
			for _, r := range rn.RN().Routers {
				for dst, out := range r.RouteMemo() {
					if out < 0 {
						continue
					}
					memoized++
					if fresh := r.FreshRoute(noc.NodeID(dst)); fresh != int(out) {
						t.Errorf("%s: memoized route to %d is port %d, RouteFunc says %d", r.Name, dst, out, fresh)
					}
				}
			}
			if memoized == 0 {
				t.Fatal("no route was memoized: the point carried no traffic")
			}
		})
	}
}
