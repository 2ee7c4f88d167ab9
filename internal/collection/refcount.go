package collection

import "sync/atomic"

// refcount is the package's one reference count, embedded by everything
// whose release must wait for in-flight users: views, the members they
// route to, and the open segment's mappings.
//
// The count starts at 1 — the reference of whoever installed the object
// (the collection's view pointer, the open segment's mapping pointer, a
// member's creator until a view holds it) — and every user adds one
// with tryRef. tryRef fails once the count has reached 0, so a drained
// object cannot be resurrected; the unref that reaches 0 runs drain,
// exactly once. "Retired" therefore needs no flag of its own: it is the
// installed reference having been dropped.
type refcount struct {
	n     atomic.Int64
	drain func()
}

// init arms the count at 1, held by the caller; drain runs when the
// last reference goes.
func (r *refcount) init(drain func()) {
	r.drain = drain
	r.n.Store(1)
}

func (r *refcount) tryRef() bool {
	for {
		n := r.n.Load()
		if n == 0 {
			return false
		}
		if r.n.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (r *refcount) unref() {
	if r.n.Add(-1) == 0 {
		r.drain()
	}
}
