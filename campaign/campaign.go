// Package campaign persists sweep execution across processes and
// machines: a design-space campaign (designs × hierarchies × workloads ×
// core counts × seeds) is thousands of points, and this package makes it
// survive interruption, resume from where it stopped, and spread over
// any number of cooperating nocout worker processes sharing a directory.
//
// Three layers build on the engine's canonical point identity
// (nocout.Point.Key, a content hash over the fully resolved point,
// workload fingerprint, and quality):
//
//   - a content-addressed result Store (DirStore): one JSON entry per
//     point key, written atomically, so already-computed points are
//     skipped on every re-run and concurrent writers are idempotent;
//   - a campaign Manifest: the sweep's full point list and key list,
//     written once at creation, so any process can rebuild the sweep,
//     verify it is working on the same campaign, and merge the final
//     Report in the original sweep order;
//   - point leasing (Leaser): claim files acquired by atomic exclusive
//     create, stolen by atomic rename after expiry, so workers partition
//     the sweep instead of duplicating it and a crashed worker's points
//     are reclaimed.
//
// The lifecycle: Create writes the manifest (or verifies and resumes an
// existing one), Work runs one worker until every point has a stored
// result, and Merge assembles the final Report — bit-identical to an
// uninterrupted single-process run, because points are deterministic and
// the manifest pins their identity and order. See EXPERIMENTS.md,
// "Running a resumable campaign".
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"nocout"
	"nocout/internal/cas"
)

// ManifestVersion is the manifest schema version ReadManifest accepts.
const ManifestVersion = 1

// Decode caps: corrupt or hostile campaign files must produce clean
// errors, not multi-gigabyte allocations (the trace decoders' hardening
// contract, applied to the campaign formats).
const (
	maxManifestBytes  = 64 << 20 // manifest.json (a point encodes to ~1KB)
	maxManifestPoints = 1 << 20
)

// Manifest is a campaign's persistent identity: the fully resolved sweep
// and the content key of every point, in sweep order. It is written once
// at campaign creation; workers verify against it and the merge step
// orders the final Report by it.
type Manifest struct {
	Version int            `json:"version"`
	Title   string         `json:"title,omitempty"`
	Quality nocout.Quality `json:"quality"`
	Points  []nocout.Point `json:"points"`
	// Keys holds each point's nocout.Point.Key at the campaign quality,
	// pinned at creation so the store stays addressable even where a
	// point's workload cannot be resolved (merge needs no simulation
	// capability at all).
	Keys []string `json:"keys"`
}

// Validate checks the manifest's structural invariants; ReadManifest
// applies it, and Create trusts only validated manifests.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("campaign: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(m.Points) == 0 {
		return fmt.Errorf("campaign: manifest has no points")
	}
	if len(m.Points) > maxManifestPoints {
		return fmt.Errorf("campaign: manifest claims %d points, cap is %d", len(m.Points), maxManifestPoints)
	}
	if len(m.Keys) != len(m.Points) {
		return fmt.Errorf("campaign: manifest has %d keys for %d points", len(m.Keys), len(m.Points))
	}
	seen := make(map[string]bool, len(m.Keys))
	for i, k := range m.Keys {
		if !ValidKey(k) {
			return fmt.Errorf("campaign: manifest key %d is not a %s point key: %.80q", i, nocout.KeyVersion, k)
		}
		if seen[k] {
			return fmt.Errorf("campaign: manifest key %d duplicated: %s", i, k)
		}
		seen[k] = true
	}
	for i := range m.Points {
		if m.Points[i].Workload == "" {
			return fmt.Errorf("campaign: manifest point %d has no workload", i)
		}
	}
	return nil
}

// ReadManifest decodes and validates a campaign manifest, holding the
// no-unbounded-allocation contract on arbitrary input.
func ReadManifest(r io.Reader) (Manifest, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxManifestBytes+1))
	if err != nil {
		return Manifest{}, err
	}
	if len(data) > maxManifestBytes {
		return Manifest{}, fmt.Errorf("campaign: manifest exceeds the %dMB cap", maxManifestBytes>>20)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: decoding manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Campaign is an open campaign directory: the manifest plus the runnable
// sweep behind it.
type Campaign struct {
	dir string
	man Manifest
	sw  nocout.Sweep
}

// manifestPath, resultsDir, and leasesDir fix the directory layout.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func resultsDir(dir string) string   { return filepath.Join(dir, "results") }
func leasesDir(dir string) string    { return filepath.Join(dir, "leases") }

// Create opens dir as the campaign for sw, writing the manifest on first
// use. When dir already holds a manifest, Create verifies it describes
// the *same* campaign — identical title, quality, and point keys in
// order (the content hash catches any drift: a recalibrated workload, a
// changed config field, a different seed) — and resumes it; a mismatch
// is a hard error, never a silent cache mixup.
func Create(dir string, sw nocout.Sweep) (*Campaign, error) {
	if sw.Len() == 0 {
		return nil, fmt.Errorf("campaign: refusing to create a campaign with no points")
	}
	if sw.Len() > maxManifestPoints {
		return nil, fmt.Errorf("campaign: sweep has %d points, cap is %d", sw.Len(), maxManifestPoints)
	}
	keys := make([]string, sw.Len())
	for i := range sw.Points {
		k, err := sw.Points[i].Key(sw.Quality)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	for _, sub := range []string{dir, resultsDir(dir), leasesDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	if data, err := os.ReadFile(manifestPath(dir)); err == nil {
		man, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", manifestPath(dir), err)
		}
		if man.Title != sw.Title || man.Quality != sw.Quality || !slices.Equal(man.Keys, keys) {
			return nil, fmt.Errorf("campaign: %s already holds a different campaign (%q, %d points); use a fresh directory or matching flags", dir, man.Title, len(man.Keys))
		}
		return &Campaign{dir: dir, man: man, sw: sw}, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	man := Manifest{Version: ManifestVersion, Title: sw.Title, Quality: sw.Quality, Points: sw.Points, Keys: keys}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	// Rehydration check before anything is written: a campaign directory
	// is shared across processes, so every point must key identically
	// after the JSON round trip a joining worker performs. A mismatch
	// means the point's workload cannot be reconstructed from the
	// manifest (typically a WithWorkloadValues value shadowed by a
	// same-named registry entry) — a silent wrong-workload simulation if
	// allowed through, so it is a hard error here.
	rt, err := ReadManifest(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for i := range rt.Points {
		k, err := rt.Points[i].Key(sw.Quality)
		if err != nil {
			return nil, fmt.Errorf("campaign: point %d (%s) cannot rehydrate from the manifest: %w (pass the workload by registered name or trace:<path> spec)", i, &sw.Points[i], err)
		}
		if k != keys[i] {
			return nil, fmt.Errorf("campaign: point %d (%s) rehydrates to a different identity (%s, want %s); pass the workload by registered name or trace:<path> spec so other workers reconstruct the same workload", i, &sw.Points[i], k, keys[i])
		}
	}
	if err := cas.WriteFileAtomic(manifestPath(dir), data); err != nil {
		return nil, err
	}
	return &Campaign{dir: dir, man: man, sw: sw}, nil
}

// Open opens an existing campaign from its directory alone — the
// manifest carries the full sweep — for joining workers and for the
// merge step. Points rehydrate their workloads through the registry (or
// their recorded trace path) when run.
func Open(dir string) (*Campaign, error) {
	f, err := os.Open(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("campaign: %s has no campaign: %w", dir, err)
	}
	defer f.Close()
	man, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", manifestPath(dir), err)
	}
	return &Campaign{
		dir: dir,
		man: man,
		sw:  nocout.Sweep{Title: man.Title, Quality: man.Quality, Points: man.Points},
	}, nil
}

// Dir returns the campaign directory.
func (c *Campaign) Dir() string { return c.dir }

// Manifest returns a copy of the campaign manifest.
func (c *Campaign) Manifest() Manifest { return c.man }

// Sweep returns the campaign's runnable sweep in manifest order.
func (c *Campaign) Sweep() nocout.Sweep { return c.sw }

// Store returns the campaign's content-addressed result store.
func (c *Campaign) Store() *DirStore { return NewDirStore(resultsDir(c.dir)) }

// Merge assembles the final Report from the store, in manifest order —
// the same Report an uninterrupted single-process Runner.Run of the
// sweep produces, bit for bit, regardless of how many workers computed
// it or how often they were interrupted. Points still missing from the
// store are an error naming how many remain.
func (c *Campaign) Merge() (*nocout.Report, error) {
	store := c.Store()
	rep := &nocout.Report{Title: c.man.Title, Quality: c.man.Quality, Results: make([]nocout.PointResult, len(c.man.Keys))}
	missing := 0
	for i, key := range c.man.Keys {
		pr, ok, err := store.Get(key)
		if err != nil {
			return nil, err
		}
		if !ok {
			missing++
			continue
		}
		rep.Results[i] = nocout.PointResult{Point: c.man.Points[i], Result: pr.Result, Err: pr.Err}
	}
	if missing > 0 {
		return nil, fmt.Errorf("campaign: %d of %d points have no stored result yet; run more workers (nocout -campaign %s)", missing, len(c.man.Keys), c.dir)
	}
	return rep, nil
}
