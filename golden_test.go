package nocout

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file is the golden safety net for code deletions: it pins, for a
// fixed set of 16-core points at confQ, the chip's StateHash after the
// measurement window, the SHA-256 of the point's Result JSON, and the
// engine's work counters (components ticked, cycles with work). A change
// meant to leave simulation behaviour untouched must pass it unchanged;
// the counters also prove a kernel speed-up comes from cheaper ticks
// rather than from fewer ticks.
// On a mismatch the test prints the replacement table row.

// goldenDigest is one point's pinned outputs.
type goldenDigest struct {
	stateHash  uint64
	result     string // hex SHA-256 of json.Marshal(Result)
	ticks      int64  // Engine.Ticks after the measurement window
	workCycles int64  // Engine.WorkCycles after the measurement window
}

// goldenDesignHierarchy pins every registered design under every
// hierarchy it can host, on MapReduce-C. A pair missing from the table
// must fail to build (a tiled-only hierarchy on a non-tiled fabric).
var goldenDesignHierarchy = map[string]goldenDigest{
	"CMesh/Clustered":                       {0x58f8003de58c245e, "238b29017c13ae879370c151dd347bc91099b02c0ce303718331850a7f9b90c0", 130384, 8000},
	"CMesh/PrivateLLC":                      {0xb8d223070ba00c5f, "2d2b48b33cfa4624e93df32152b4ff3eeb3ef1fb83c67c1c4bcd8001b1649255", 131084, 8000},
	"CMesh/SharedNUCA":                      {0xef5571f27a5a2235, "abef6af6379884034aafa33963988719dcc93e13e1eb4d6c060083dc7e016c03", 129688, 8000},
	"CMesh/SharedNUCA-Affine":               {0x602eedcd46317cea, "73653266025b2ac12fd5c56c087e38020543305260435330d605407594e69580", 130584, 8000},
	"CMesh/SharedNUCA-XOR":                  {0x911f5779280111dd, "2c25651af03cf3c1dfdd863198a13f4d7eeed3da25350e4e835000e28c27ddc4", 129460, 8000},
	"Crossbar/Clustered":                    {0xf985098e221f433c, "976d76964b1a0dc42f882b1f1b515013427d684e4b4ef3e1c1d82553f4eea478", 118219, 8000},
	"Crossbar/PrivateLLC":                   {0x827399d5acd60d5c, "a6a54aaa7baa11d0027d1d43b9e6c74991f646a46eb7df6c597571ce377866fc", 118921, 8000},
	"Crossbar/SharedNUCA":                   {0x5d820148d8f87ce7, "f689a2c7418a43f1214f98eafe10bc50c9276820a02f24788da2431a8a5ffceb", 118908, 8000},
	"Crossbar/SharedNUCA-Affine":            {0xfc7dd6bbbd98c1f9, "104ed855e9bfe48abcab67ca9316b509b22667af1825880577cbaa653b967bab", 119307, 8000},
	"Crossbar/SharedNUCA-XOR":               {0x5b2ee73b6226de20, "2c40998cc4d21b5403efc205904994f96062f1405c0cba7dd873a7d55fb22866", 119293, 8000},
	"Flattened Butterfly/Clustered":         {0x3ef5408650b2a72f, "5908d43fea8bd5ebb8a04ce7116716fca020b4c7b4c8766047e6472d8fdc25bf", 132670, 7996},
	"Flattened Butterfly/PrivateLLC":        {0xf8abf4cd87817cb9, "df26eebf0dc93f9f2fceda7bd89c39bbbedd3528ab97c5c395ff1b5570f3d5d5", 131970, 7996},
	"Flattened Butterfly/SharedNUCA":        {0xe9c588cd50a53d88, "f13e37271f660f3f921a1ae1ce2a76db27b32ae1e6f4c38b167cbb014ce49b03", 133808, 7995},
	"Flattened Butterfly/SharedNUCA-Affine": {0x401ade988486c7dd, "c53d98654982dd851c21d106938c4548a3b62f05456c89cf3992798f2c8a114a", 133475, 7995},
	"Flattened Butterfly/SharedNUCA-XOR":    {0x9d89be77417bf422, "cc260ac09c7a4c916c48183643b8c50017f85c992e63cb268e931b4719569c52", 133925, 7995},
	"Ideal/Clustered":                       {0xe17832b9dea50738, "145a10c1f47c1fd9fe3da3d563bd694f65f5c75984010be28e91f019ef3b103e", 90829, 8000},
	"Ideal/PrivateLLC":                      {0x504c71776c12c5f, "ec392e06afb4a494bad640c14dbf81e044628155474c193ec3b2044f2ea39326", 91018, 8000},
	"Ideal/SharedNUCA":                      {0x257fee6759903f88, "44fdd3630b7a33c6c7a6b98e45ca752495f2d48039e04f2183fbb22ef7504f79", 90128, 7999},
	"Ideal/SharedNUCA-Affine":               {0xa43f5dfb9c919907, "af3bc1ebf9d5db401a5c1110fa60abe005048f07c99c5adeb79578917ebe5a48", 90883, 7999},
	"Ideal/SharedNUCA-XOR":                  {0x44662df16963247d, "81287a0c66731bdcc07f20056a9a37daaabaf44bab2605174bde8fb6153709b8", 90136, 7999},
	"Mesh/Clustered":                        {0x97c90f8cdfd19697, "9d54e0b0559e6c2242e3f7d3684715bce5dd84240b245a63d0019647ec9fcfad", 142525, 7995},
	"Mesh/PrivateLLC":                       {0x9b985aaf7e1cb38, "aaf1e1822f5f62da5e6ccc9ca562e2bd0bd61f87ed092c0b7af090d51277e8d6", 140865, 7995},
	"Mesh/SharedNUCA":                       {0x91b31bfc37d5a8d0, "1676563ce44dfa31d50d5d27a9cca6d3781381ba7e3fb950fe34ce8deccd6bd3", 144097, 7996},
	"Mesh/SharedNUCA-Affine":                {0x1a7e3d6be7ce2493, "761909224316d013a70c639ed3b3bfd35b83ff67e310787e38f4d5e6d1ebe19e", 141670, 7996},
	"Mesh/SharedNUCA-XOR":                   {0xc398ad3c46c1f645, "15ab8e1f755651d115ad523658b585d2d56232daf72b50a015ca64a816cc4c1e", 143502, 7996},
	"NOC-Out/SharedNUCA":                    {0x7017cc1aa55c5b94, "3ea247003a8dccba5e27575653bab0ccdb3313edd757e2f13de212bf96c03a87", 139734, 7997},
	"NOC-Out/SharedNUCA-Affine":             {0x27c94b54136fadaf, "46e1dff66d781f05b8008c10dc6a717b8db75a6b4f696bbdf8173f04b3890a12", 140118, 7997},
	"NOC-Out/SharedNUCA-XOR":                {0x4c12062da0a20f32, "ee4e7e2a2ebdc95e0441cf5c6d71db06aae912e681a31064670e4ea9effdf829", 139224, 8000},
	"Torus/Clustered":                       {0xe65d8d75a579af0d, "0967600bb2907b574c0960275a59a0f10150b3741c241a718255ba96417eae5f", 141050, 7997},
	"Torus/PrivateLLC":                      {0xc2fe0d44c44341c2, "02e20fbeb0da3b92c1658ff86b285c6290d2e36485c73524218e8aee3b9f71d9", 141050, 7997},
	"Torus/SharedNUCA":                      {0x333b7a454b1c3122, "b64d0c5ecc08db60c37f42030402ed21eec66753787c4597dd2e27d7eb04db36", 144571, 7997},
	"Torus/SharedNUCA-Affine":               {0xbe9add4447edbbb2, "1c984cc9d1361717f1248ff58ce993c9134d87350ef7801ad93f208929da70cb", 141954, 7997},
	"Torus/SharedNUCA-XOR":                  {0x9d35655c621c2c5c, "645a27613d2c8f2039026f5b039e8a7725cbf343b20e954c21ba8ec0dfe72fcd", 144566, 7997},
}

// goldenWorkloads pins one point per workload family on Mesh and NOC-Out.
var goldenWorkloads = map[string]goldenDigest{
	"Mesh/builtin":    {0x4d6742e55635dff3, "d118b1189268c0f97450cb9098c55212a0025dbad4a3c8250e6afda2eae7fed0", 134671, 7996},
	"Mesh/mix":        {0xb65bd1d91a88969d, "beb8ea9a9245c5ce84301b43415304c7973e440d40380d1e50c87a51a13e6708", 138883, 7996},
	"Mesh/opensys":    {0x6be9d92c5537a6e3, "58f9a29bfd79f4a6fb08ae7993c090b3ed94bf9faf1ff1679c1577fdc3727506", 135768, 8000},
	"Mesh/phased":     {0xeede3169ebf47b9, "0bca7615463a4ba06bc51816542da96fdc379d0014c4873a8799f123723ce245", 142422, 7996},
	"Mesh/trace":      {0x642763aadbed6841, "3cc439ac56576c26ea925c0c4bd408603b9b83e0f21b5b39fde579f964350ed7", 134152, 7997},
	"NOC-Out/builtin": {0xb74561499b68d20d, "d429bacf641d98941600326333bd082ec953e20aeb0493c0e4a44aedb488a620", 130793, 7997},
	"NOC-Out/mix":     {0x79f336f1f81786e3, "2a72cb5c4b0f7fb6278ce0566a9393ceeca79e2ed740eb971962c1962d5e6631", 136056, 7999},
	"NOC-Out/opensys": {0x5d93093713bca750, "a4e9c29b7fad87e6e5754635d621b9bd3c81fe63d33cf9cd9534b31854e27f5a", 132987, 8000},
	"NOC-Out/phased":  {0x4e6512d605f6d15, "7c5213b78b153f06bee2c42744e92130ceeeea97e77298053ae71ba09a6fef2a", 138513, 7997},
	"NOC-Out/trace":   {0xa5a43a162be696e9, "9fcb1775a0995ef3756460611b3a9cf178ea8f4865a6117780735e090a033253", 129198, 8000},
}

// goldenCheck runs one point both ways — a bare chip for the StateHash,
// RunWorkload for the Result — and compares against want.
func goldenCheck(t *testing.T, name string, cfg Config, w workload.Workload, want goldenDigest, ok bool) {
	t.Helper()
	c := chip.New(cfg, w)
	c.PrewarmCaches()
	c.Warmup(confQ.Warmup)
	c.Run(confQ.Window)
	js, err := json.Marshal(RunWorkload(cfg, w, confQ))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	got := goldenDigest{c.StateHash(), hex.EncodeToString(sum[:]), c.Engine.Ticks(), c.Engine.WorkCycles()}
	if !ok || got != want {
		t.Errorf("golden mismatch; table row:\n\t%q: {%#x, %q, %d, %d},", name, got.stateHash, got.result, got.ticks, got.workCycles)
	}
}

// buildFails reports whether chip.New rejects cfg with the tiled-fabric
// hard error.
func buildFails(t *testing.T, cfg Config, w workload.Workload) (fails bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			e, isErr := r.(error)
			if !isErr || !strings.Contains(e.Error(), "tiled organization") {
				panic(r)
			}
			fails = true
		}
	}()
	chip.New(cfg, w)
	return false
}

func TestGoldenDesignHierarchy(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		for _, h := range Hierarchies() {
			hier, err := HierarchyOf(h)
			if err != nil {
				t.Fatal(err)
			}
			cfg := hier.DefaultConfig(DefaultConfig(d))
			cfg.Cores = 16
			cfg.Hierarchy = h
			name := d.String() + "/" + h.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, ok := goldenDesignHierarchy[name]
				if buildFails(t, cfg, w) {
					if ok {
						t.Fatalf("%s is pinned but no longer builds", name)
					}
					return
				}
				goldenCheck(t, name, cfg, w, want, ok)
			})
		}
	}
}

func TestGoldenWorkloadFamilies(t *testing.T) {
	base := DefaultConfig(Mesh)
	base.Cores = 16
	synth, err := workload.Parse("SAT Solver")
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "sat.noctrace")
	perCore := int(confQ.Warmup+confQ.Window) * 3
	if err := workload.RecordFile(trace, synth, base.Cores, perCore, base.Seed); err != nil {
		t.Fatal(err)
	}
	families := []struct{ family, spec string }{
		{"builtin", "Web Search"},
		{"mix", "Consolidated"},
		{"phased", "MapReduce-Phased"},
		{"trace", "trace:" + trace},
		{"opensys", "opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64"},
	}
	for _, d := range []Design{Mesh, NOCOut} {
		for _, f := range families {
			w, err := workload.Parse(f.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(d)
			cfg.Cores = 16
			name := d.String() + "/" + f.family
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, ok := goldenWorkloads[name]
				goldenCheck(t, name, cfg, w, want, ok)
			})
		}
	}
}

// goldenSnapshots pins the checkpoint format: the SHA-256 of a mid-flight
// Chip.Snapshot of a 16-core MapReduce-C chip. Each warm-up length stops
// the chip at a cycle where flits of all three classes are on router
// links and responses sit in VC buffers, so the buffered/in-flight split
// of the network section is covered. A change to how the fabric holds
// flits must keep these bytes, or stored warm prefixes stop loading.
var goldenSnapshots = map[Design]struct {
	warmup sim.Cycle
	sha256 string
}{
	NOCOut: {2266, "ca8e3a3f6ad6f35b7bb5f82d8d6f7c9f4c099447e942be1bfd4d555f2c012191"},
	Mesh:   {2297, "014aea24703155c858653b965b94b46d75cd31117d15b479fe1d70092603b3f4"},
}

func TestGoldenSnapshot(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for d, want := range goldenSnapshots {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d)
			cfg.Cores = 16
			_, snap, _ := warmSnapshot(t, cfg, w, want.warmup)
			sum := sha256.Sum256(snap)
			if got := hex.EncodeToString(sum[:]); got != want.sha256 {
				t.Errorf("snapshot SHA-256 = %s, want %s", got, want.sha256)
			}
			// A restored chip re-encodes to the same bytes.
			r, err := chip.Restore(cfg, w, 1, bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := r.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), snap) {
				t.Error("restored chip's snapshot differs from the one it loaded")
			}
		})
	}
}
