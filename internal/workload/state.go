package workload

import "nocout/internal/ckpt"

// Checkpoint serialization of the stream cursors. A stream's identity
// (its Params or trace) is structural — the restoring chip
// rebuilds streams from the workload spec — so only the position state
// travels: program counter, run/phase countdowns, the recent-jump set,
// replay indices, and RNG positions.

// SaveState implements ckpt.Saver.
func (g *Generator) SaveState(e *ckpt.Enc) {
	e.U64(g.pc)
	e.Int(g.runLeft)
	e.U64s(g.recent)
	e.Int(g.rIdx)
	e.U64(g.rng.State())
}

// LoadState implements ckpt.Loader.
func (g *Generator) LoadState(d *ckpt.Dec) {
	g.pc = d.U64()
	g.runLeft = d.Int()
	recent := d.U64s()
	rIdx := d.Int()
	if d.Err() != nil {
		return
	}
	if len(recent) > cap(g.recent) {
		d.Corrupt("recent-jump set of %d exceeds capacity %d", len(recent), cap(g.recent))
		return
	}
	if rIdx < 0 || (len(recent) > 0 && rIdx >= cap(g.recent)) || (len(recent) == 0 && rIdx != 0) {
		d.Corrupt("recent-jump index %d out of range", rIdx)
		return
	}
	g.recent = append(g.recent[:0], recent...)
	g.rIdx = rIdx
	g.rng.SetState(d.U64())
}

// SaveState implements ckpt.Saver.
func (s *phasedStream) SaveState(e *ckpt.Enc) {
	e.Int(s.idx)
	e.Int(s.left)
	for _, g := range s.gens {
		g.SaveState(e)
	}
}

// LoadState implements ckpt.Loader.
func (s *phasedStream) LoadState(d *ckpt.Dec) {
	idx := d.Int()
	left := d.Int()
	if d.Err() != nil {
		return
	}
	if idx < 0 || idx >= len(s.gens) || left < 0 {
		d.Corrupt("phase cursor %d/%d out of range (%d phases)", idx, left, len(s.gens))
		return
	}
	s.idx = idx
	s.left = left
	for _, g := range s.gens {
		g.LoadState(d)
	}
}

// SaveState implements ckpt.Saver: a NOC3 replay cursor serializes as a
// (block, offset) pair, so a restore seeks the trace file instead of
// re-reading the stream — O(keyframeEvery × block) work wherever the
// cursor is in a multi-gigabyte recording.
func (r *blockReplay) SaveState(e *ckpt.Enc) {
	e.Int(r.blk)
	e.Int(r.off)
}

// LoadState implements ckpt.Loader. The seek decodes from the block's
// keyframe, so a corrupt-on-disk block surfaces here as a checkpoint
// error, not a mid-run panic.
func (r *blockReplay) LoadState(d *ckpt.Dec) {
	blk := d.Int()
	off := d.Int()
	if d.Err() != nil {
		return
	}
	if blk < 0 || blk >= len(r.t.cores[r.core].blocks) {
		d.Corrupt("trace block cursor %d out of range (%d blocks)", blk, len(r.t.cores[r.core].blocks))
		return
	}
	if off < 0 || off >= r.t.countOf(r.core, blk) {
		d.Corrupt("trace offset cursor %d out of range (block %d holds %d)", off, blk, r.t.countOf(r.core, blk))
		return
	}
	if err := r.seek(blk, off); err != nil {
		d.Corrupt("seeking trace to (%d, %d): %v", blk, off, err)
	}
}
