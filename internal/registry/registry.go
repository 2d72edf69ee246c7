// Package registry is the one name registry behind every extension axis
// of the design space: interconnect organizations, memory hierarchies and
// workloads. Each is a list of self-naming entries in registration order,
// resolvable from any registered spelling — the name or an alias,
// case-insensitively and whitespace-tolerant — through a small integer
// handle. Handles are positions in registration order and are persisted
// (checkpoints write them as integers), so entries are never removed or
// reordered.
package registry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Entry is a registrable value: its display name plus Aliases, extra
// (lowercase) spellings. The lowercased Name is always accepted and need
// not be repeated among the aliases.
type Entry interface {
	Name() string
	Aliases() []string
}

// Registry lists entries of type T under handles of type H. Registration
// is rare and reads are hot (every chip build, String and Parse), so it
// is guarded by a RWMutex and safe for concurrent use from worker pools.
type Registry[H ~uint8, T Entry] struct {
	pkg, kind string // errors read "<pkg>: unknown <kind> ..."
	mu        sync.RWMutex
	list      []T
	keys      map[string]H
}

// New returns an empty registry of kind entries whose errors are
// prefixed with pkg.
func New[H ~uint8, T Entry](pkg, kind string) *Registry[H, T] {
	return &Registry[H, T]{pkg: pkg, kind: kind, keys: map[string]H{}}
}

// Key is the normalized spelling lookups match: trimmed and lowercased.
func Key(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Must returns h and panics on err: for registrations and lookups whose
// failure only a bug can cause.
func Must[H any](h H, err error) H {
	if err != nil {
		panic(err)
	}
	return h
}

// Register appends v and returns its handle, the next in registration
// order. The name and every alias must be non-empty and must not collide,
// case-insensitively, with any spelling already registered; an alias
// repeating v's own name is accepted. A rejected registration changes
// nothing. The handle space holds 256 entries.
func (r *Registry[H, T]) Register(v T) (H, error) {
	keys := []string{Key(v.Name())}
	if keys[0] == "" {
		return 0, fmt.Errorf("%s: %s needs a name", r.pkg, r.kind)
	}
	for _, a := range v.Aliases() {
		a = Key(a)
		if a == "" {
			return 0, fmt.Errorf("%s: %s %q has an empty alias", r.pkg, r.kind, v.Name())
		}
		if !slices.Contains(keys, a) {
			keys = append(keys, a)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.list) > 255 {
		return 0, fmt.Errorf("%s: %s registry full", r.pkg, r.kind)
	}
	for _, k := range keys {
		if h, dup := r.keys[k]; dup {
			return 0, fmt.Errorf("%s: %s name %q already registered by %s", r.pkg, r.kind, k, r.list[h].Name())
		}
	}
	h := H(len(r.list))
	r.list = append(r.list, v)
	for _, k := range keys {
		r.keys[k] = h
	}
	return h, nil
}

// Get returns the entry registered under h.
func (r *Registry[H, T]) Get(h H) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(h) >= len(r.list) {
		var zero T
		return zero, fmt.Errorf("%s: %s %d is not registered", r.pkg, r.kind, uint8(h))
	}
	return r.list[h], nil
}

// Name returns the name registered under h, or the handle's type and
// number when none is.
func (r *Registry[H, T]) Name(h H) string {
	if v, err := r.Get(h); err == nil {
		return v.Name()
	}
	return fmt.Sprintf("%T(%d)", h, uint8(h))
}

// Lookup resolves any registered spelling of an entry to its handle and
// the entry itself.
func (r *Registry[H, T]) Lookup(s string) (H, T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.keys[Key(s)]
	if !ok {
		var zero T
		return 0, zero, false
	}
	return h, r.list[h], true
}

// Parse is Lookup for a handle alone; an unknown spelling is an error
// listing every registered name, lowercased.
func (r *Registry[H, T]) Parse(s string) (H, error) {
	if h, _, ok := r.Lookup(s); ok {
		return h, nil
	}
	return 0, fmt.Errorf("%s: unknown %s %q (want %s)", r.pkg, r.kind, s, strings.ToLower(strings.Join(r.Names(), " | ")))
}

// Unmarshal sets *h from any spelling Parse accepts, leaving it unchanged
// on error.
func (r *Registry[H, T]) Unmarshal(h *H, b []byte) error {
	v, err := r.Parse(string(b))
	if err == nil {
		*h = v
	}
	return err
}

// All returns every entry in registration (handle) order.
func (r *Registry[H, T]) All() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.list)
}

// Handles returns every handle in registration order.
func (r *Registry[H, T]) Handles() []H {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hs := make([]H, len(r.list))
	for i := range hs {
		hs[i] = H(i)
	}
	return hs
}

// Names returns every entry's display name in registration order.
func (r *Registry[H, T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.list))
	for i, v := range r.list {
		names[i] = v.Name()
	}
	return names
}
