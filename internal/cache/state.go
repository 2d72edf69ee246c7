package cache

import "nocout/internal/ckpt"

// Checkpoint serialization of the storage arrays. Geometry (sets, ways,
// hashing) is structural — the restoring chip rebuilds it from config —
// so only the occupancy is serialized: tags, valid bits, LRU stamps, and
// the LRU clock. Tag and age arrays are delta-encoded (Enc.U64s): tags
// within a set share high bits and age stamps are globally clustered, so
// warm arrays serialize at a few bytes per line.

// SaveState implements ckpt.Saver.
func (a *Array) SaveState(e *ckpt.Enc) {
	e.U64s(a.tags)
	e.Bools(a.valid)
	e.U64s(a.age)
	e.U64(a.clock)
}

// LoadState implements ckpt.Loader. The array must have been built with
// the donor's geometry; a mismatched line count is corruption. The arrays
// are decoded in place.
func (a *Array) LoadState(d *ckpt.Dec) {
	ckpt.U64sInto(d, a.tags)
	d.BoolsInto(a.valid)
	ckpt.U64sInto(d, a.age)
	a.clock = d.U64()
}

// SaveState implements ckpt.Saver: outstanding misses in ascending line
// order, so the encoding is independent of allocation and free order. The
// file is small, so each next entry is found by a scan rather than sorting
// the live entries in place.
func (f *MSHRFile) SaveState(e *ckpt.Enc) {
	e.U64(uint64(f.n))
	var last uint64
	for k := 0; k < f.n; k++ {
		next := -1
		for i, m := range f.ents[:f.n] {
			if (k == 0 || m.Line > last) && (next < 0 || m.Line < f.ents[next].Line) {
				next = i
			}
		}
		m := &f.ents[next]
		last = m.Line
		e.U64(m.Line)
		e.Bool(m.IsWrite)
		e.Bool(m.Instr)
		e.Bool(m.Issued)
		e.Bool(m.Squashed)
		e.Int(m.Waiters)
	}
}

// LoadState implements ckpt.Loader. Capacity is structural; a stored
// occupancy beyond it is corruption.
func (f *MSHRFile) LoadState(d *ckpt.Dec) {
	n := d.Count()
	if d.Err() != nil {
		return
	}
	if n > len(f.ents) {
		d.Corrupt("MSHR occupancy %d exceeds capacity %d", n, len(f.ents))
		return
	}
	f.n = 0
	for i := 0; i < n && d.Err() == nil; i++ {
		m := MSHR{
			Line:     d.U64(),
			IsWrite:  d.Bool(),
			Instr:    d.Bool(),
			Issued:   d.Bool(),
			Squashed: d.Bool(),
		}
		m.Waiters = d.Int()
		if f.find(m.Line) >= 0 {
			d.Corrupt("duplicate MSHR line %#x", m.Line)
			return
		}
		f.ents[f.n] = m
		f.n++
	}
}
