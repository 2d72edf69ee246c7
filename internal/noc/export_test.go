package noc

// RouteMemo exposes a router's memoized routes (-1 = not yet computed) to
// the external tests in this directory.
func (r *Router) RouteMemo() []int32 { return r.routes }

// FreshRoute evaluates the router's RouteFunc for dst, bypassing the memo.
func (r *Router) FreshRoute(dst NodeID) int { return r.route(&Packet{Dst: dst}) }
