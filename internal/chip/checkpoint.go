package chip

import (
	"fmt"
	"io"

	"nocout/internal/ckpt"
	"nocout/internal/coherence"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// Warm-state checkpointing: Snapshot serializes the complete behavioral
// state of a chip at a step boundary into a ckpt container; Restore
// rebuilds a runnable chip from the same (config, workload) pair and a
// snapshot, at the measurement boundary — all measurement counters are
// zeroed through the same resetMeasurementStats path Warmup uses, so a
// chip restored from a post-Warmup snapshot has a StateHash equal to the
// donor's and executes cycle-for-cycle bit-identically thereafter.

// Section kinds of a chip checkpoint container.
const (
	secMeta  uint64 = 1
	secCores uint64 = 2
	secL1s   uint64 = 3
	secBanks uint64 = 4
	secMCs   uint64 = 5
	secNet   uint64 = 6
)

// putMsgPayload encodes a packet's protocol payload (nil or a
// *coherence.Msg cell).
func putMsgPayload(e *ckpt.Enc, payload any) {
	m, ok := payload.(*coherence.Msg)
	if !ok || m == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	coherence.EncodeMsg(e, *m)
}

func getMsgPayload(d *ckpt.Dec) any {
	if !d.Bool() {
		return nil
	}
	m := new(coherence.Msg)
	*m = coherence.DecodeMsg(d)
	return m
}

// netSaver matches network implementations whose in-flight state can be
// checkpointed with a payload codec at a snapshot cycle.
type netSaver interface {
	SaveState(e *ckpt.Enc, now sim.Cycle, put noc.PayloadEnc)
	LoadState(d *ckpt.Dec, now sim.Cycle, get noc.PayloadDec)
}

// netState resolves the chip's network to its checkpointable form: the
// router network behind any RN()-exposing implementation (mesh, torus,
// cmesh, fbfly, NOC-Out), or the ideal fabric.
func (c *Chip) netState() (netSaver, error) {
	if v, ok := c.Net.(interface{ RN() *noc.RouterNetwork }); ok {
		return v.RN(), nil
	}
	if id, ok := c.Net.(*topo.Ideal); ok {
		return id, nil
	}
	return nil, fmt.Errorf("chip: network %T does not support checkpointing", c.Net)
}

// Snapshot writes the chip's complete behavioral state to w. The chip
// must be between steps. Measurement statistics are not part of a
// snapshot — Restore re-zeroes them — so Snapshot is meant for the
// measurement boundary right after Warmup.
func (c *Chip) Snapshot(w io.Writer) error {
	ns, err := c.netState()
	if err != nil {
		return err
	}
	// Settle every component's lazy accounting at the snapshot cycle, so
	// each serialized lastSeen equals the snapshot cycle and the restored
	// chip's first (re-armed) tick replays no catch-up window.
	c.Engine.Flush()

	cw := ckpt.NewWriter(w)
	var e ckpt.Enc

	e.Reset()
	e.I64(int64(c.Engine.Now()))
	e.U64(uint64(c.Cfg.Design))
	e.U64(uint64(c.Cfg.Hierarchy))
	e.Int(c.Cfg.Cores)
	e.U64(c.Cfg.Seed)
	e.Int(c.active)
	e.Int(len(c.Banks))
	e.Int(len(c.MCs))
	cw.Section(secMeta, e.Bytes())

	e.Reset()
	for _, co := range c.Cores {
		co.SaveState(&e)
		sv, ok := co.Stream().(ckpt.Saver)
		if !ok {
			return fmt.Errorf("chip: core %d stream %T does not support checkpointing", co.ID, co.Stream())
		}
		sv.SaveState(&e)
	}
	cw.Section(secCores, e.Bytes())

	e.Reset()
	for _, l1 := range c.L1s {
		l1.SaveState(&e)
	}
	cw.Section(secL1s, e.Bytes())

	e.Reset()
	for _, b := range c.Banks {
		b.SaveState(&e)
	}
	cw.Section(secBanks, e.Bytes())

	e.Reset()
	for _, mc := range c.MCs {
		mc.SaveState(&e)
	}
	cw.Section(secMCs, e.Bytes())

	e.Reset()
	ns.SaveState(&e, c.Engine.Now(), putMsgPayload)
	cw.Section(secNet, e.Bytes())

	return cw.Err()
}

// Restore builds a chip for (cfg, w) — exactly as New would — and loads a
// snapshot into it. The snapshot must come from a chip built with the
// same config and workload. domains must be 1; any other value is an
// error. The returned chip sits at the donor's snapshot cycle with
// measurement counters zeroed, ready for Run.
func Restore(cfg Config, wl workload.Workload, domains int, r io.Reader) (*Chip, error) {
	if domains != 1 {
		return nil, fmt.Errorf("chip: restore into %d domains: only 1 is supported", domains)
	}
	cont, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	c := New(cfg, wl)
	if err := c.loadContainer(cont); err != nil {
		return nil, err
	}
	return c, nil
}

// Info is a checkpoint's decoded identity, for store listings and
// restore-time validation messages.
type Info struct {
	Design    Design      `json:"design"`
	Hierarchy HierarchyID `json:"hierarchy"`
	Cores     int         `json:"cores"`
	Seed      uint64      `json:"seed"`
	Active    int         `json:"active_cores"`
	Cycle     sim.Cycle   `json:"cycle"`
	Sections  int         `json:"sections"`
}

// Inspect decodes a checkpoint's meta section without building a chip —
// the cheap way to list a checkpoint store's contents.
func Inspect(r io.Reader) (Info, error) {
	cont, err := ckpt.Read(r)
	if err != nil {
		return Info{}, err
	}
	for i := 0; i < cont.Len(); i++ {
		if cont.Kind(i) != secMeta {
			continue
		}
		d, err := cont.Open(i)
		if err != nil {
			return Info{}, err
		}
		info := Info{
			Cycle:     sim.Cycle(d.I64()),
			Design:    Design(d.U64()),
			Hierarchy: HierarchyID(d.U64()),
			Cores:     d.Int(),
			Seed:      d.U64(),
			Active:    d.Int(),
			Sections:  cont.Len(),
		}
		d.Int() // bank count
		d.Int() // channel count
		if err := d.Err(); err != nil {
			return Info{}, err
		}
		return info, nil
	}
	return Info{}, fmt.Errorf("chip: checkpoint has no meta section")
}

// loadContainer loads a parsed snapshot into a freshly built chip.
func (c *Chip) loadContainer(cont *ckpt.Container) error {
	open := func(kind uint64) (*ckpt.Dec, error) {
		for i := 0; i < cont.Len(); i++ {
			if cont.Kind(i) == kind {
				return cont.Open(i)
			}
		}
		return nil, fmt.Errorf("chip: checkpoint has no section of kind %d", kind)
	}
	finish := func(kind uint64, d *ckpt.Dec) error {
		if err := d.Err(); err != nil {
			return fmt.Errorf("chip: section %d: %w", kind, err)
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("chip: section %d has %d trailing bytes", kind, d.Remaining())
		}
		return nil
	}

	d, err := open(secMeta)
	if err != nil {
		return err
	}
	cycle := sim.Cycle(d.I64())
	design := Design(d.U64())
	hier := HierarchyID(d.U64())
	cores := d.Int()
	seed := d.U64()
	active := d.Int()
	banks := d.Int()
	mcs := d.Int()
	if err := finish(secMeta, d); err != nil {
		return err
	}
	if cycle < 0 {
		return fmt.Errorf("chip: checkpoint cycle %d is negative", cycle)
	}
	if design != c.Cfg.Design || hier != c.Cfg.Hierarchy || cores != c.Cfg.Cores ||
		seed != c.Cfg.Seed || active != c.active || banks != len(c.Banks) || mcs != len(c.MCs) {
		return fmt.Errorf("chip: checkpoint was taken on a different system "+
			"(design %d/%d, hierarchy %d/%d, cores %d/%d, seed %d/%d, active %d/%d, banks %d/%d, channels %d/%d)",
			design, c.Cfg.Design, hier, c.Cfg.Hierarchy, cores, c.Cfg.Cores,
			seed, c.Cfg.Seed, active, c.active, banks, len(c.Banks), mcs, len(c.MCs))
	}

	if d, err = open(secCores); err != nil {
		return err
	}
	for _, co := range c.Cores {
		co.LoadState(d)
		ld, ok := co.Stream().(ckpt.Loader)
		if !ok {
			return fmt.Errorf("chip: core %d stream %T does not support checkpointing", co.ID, co.Stream())
		}
		ld.LoadState(d)
		if d.Err() != nil {
			break
		}
	}
	if err := finish(secCores, d); err != nil {
		return err
	}

	if d, err = open(secL1s); err != nil {
		return err
	}
	for _, l1 := range c.L1s {
		l1.LoadState(d)
		if d.Err() != nil {
			break
		}
	}
	if err := finish(secL1s, d); err != nil {
		return err
	}

	if d, err = open(secBanks); err != nil {
		return err
	}
	for _, b := range c.Banks {
		b.LoadState(d)
		if d.Err() != nil {
			break
		}
	}
	if err := finish(secBanks, d); err != nil {
		return err
	}

	if d, err = open(secMCs); err != nil {
		return err
	}
	for _, mc := range c.MCs {
		mc.LoadState(d)
		if d.Err() != nil {
			break
		}
	}
	if err := finish(secMCs, d); err != nil {
		return err
	}

	ns, err := c.netState()
	if err != nil {
		return err
	}
	if d, err = open(secNet); err != nil {
		return err
	}
	ns.LoadState(d, cycle, getMsgPayload)
	if err := finish(secNet, d); err != nil {
		return err
	}

	// The restored chip sits at the measurement boundary: zero the
	// counters through the same path Warmup uses, then move the clock and
	// re-arm every component for the cycle after the snapshot.
	c.resetMeasurementStats()
	c.Engine.RestoreAt(cycle)
	return nil
}
