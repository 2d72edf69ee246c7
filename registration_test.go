package nocout

import (
	"slices"
	"testing"
)

// registered is one pinned registry entry: its handle (for workloads,
// its listing position), name and full alias list.
type registered struct {
	handle  int
	name    string
	aliases []string
}

// TestRegistrationTable pins every builtin design, hierarchy and workload
// in registration order. Checkpoints store Design and HierarchyID as
// integers, so a renumbered handle would otherwise surface only as a
// restore mismatch.
func TestRegistrationTable(t *testing.T) {
	wantDesigns := []registered{
		{0, "Mesh", nil},
		{1, "Flattened Butterfly", []string{"fbfly", "flattened-butterfly"}},
		{2, "NOC-Out", []string{"nocout"}},
		{3, "Ideal", nil},
		{4, "Torus", []string{"2d-torus"}},
		{5, "CMesh", []string{"concentrated-mesh"}},
		{6, "Crossbar", []string{"xbar", "central-crossbar"}},
	}
	wantHierarchies := []registered{
		{0, "SharedNUCA", []string{"shared", "nuca", "shared-nuca"}},
		{1, "SharedNUCA-XOR", []string{"xor", "nuca-xor", "xor-placement"}},
		{2, "SharedNUCA-Affine", []string{"affine", "region-affine", "nuca-affine"}},
		{3, "PrivateLLC", []string{"private", "private-llc"}},
		{4, "Clustered", []string{"cluster", "clustered-llc"}},
	}
	wantWorkloads := []registered{
		{0, "Data Serving", []string{"data-serving", "cassandra"}},
		{1, "MapReduce-C", []string{"mapred-c"}},
		{2, "MapReduce-W", []string{"mapred-w"}},
		{3, "SAT Solver", []string{"sat-solver", "sat"}},
		{4, "Web Frontend", []string{"web-frontend", "frontend"}},
		{5, "Web Search", []string{"web-search", "websearch", "search"}},
		{6, "Consolidated", []string{"mix"}},
		{7, "MapReduce-Phased", []string{"phased"}},
		{8, "Open Poisson", []string{"open-poisson"}},
		{9, "Open MMPP", []string{"open-mmpp"}},
		{10, "Open Burst", []string{"open-burst"}},
	}

	var designs, hierarchies, workloads []registered
	for _, d := range Designs() {
		org, err := OrganizationOf(d)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, registered{int(d), org.Name(), org.Aliases()})
	}
	for _, id := range Hierarchies() {
		h, err := HierarchyOf(id)
		if err != nil {
			t.Fatal(err)
		}
		hierarchies = append(hierarchies, registered{int(id), h.Name(), h.Aliases()})
	}
	for i, w := range RegisteredWorkloads() {
		workloads = append(workloads, registered{i, w.Name(), w.Aliases()})
	}
	for _, tc := range []struct {
		kind      string
		got, want []registered
	}{
		{"design", designs, wantDesigns},
		{"hierarchy", hierarchies, wantHierarchies},
		{"workload", workloads, wantWorkloads},
	} {
		if !slices.EqualFunc(tc.got, tc.want, func(a, b registered) bool {
			return a.handle == b.handle && a.name == b.name && slices.Equal(a.aliases, b.aliases)
		}) {
			t.Errorf("%s registry:\n got %v\nwant %v", tc.kind, tc.got, tc.want)
		}
	}
	// The named handles are the pinned positions.
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Mesh", int(Mesh), 0}, {"FBfly", int(FBfly), 1}, {"NOCOut", int(NOCOut), 2}, {"Ideal", int(Ideal), 3},
		{"Torus", int(Torus), 4}, {"CMesh", int(CMesh), 5}, {"Crossbar", int(Crossbar), 6},
		{"SharedNUCA", int(SharedNUCA), 0}, {"XORPlacement", int(XORPlacement), 1},
		{"RegionAffine", int(RegionAffine), 2}, {"PrivateLLC", int(PrivateLLC), 3}, {"Clustered", int(Clustered), 4},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
