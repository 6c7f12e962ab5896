package callstack

import "sync/atomic"

// Node is one link of an immutable call chain: the Entry for a caller
// frame plus the chain of its own callers. The interpreter threads a
// node through every activation record, so "capture the call stack" on
// the event hot path is copying a pointer instead of materializing a
// Stack — the outer frames of a stack are fixed the moment the call
// executes, only the innermost position keeps moving.
//
// Nodes are built once per call and never mutated afterwards, except
// for the lazily built prefix cache. Snapshots share nodes between the
// machines restored from them, which may run on different goroutines,
// so the cache is an atomic pointer.
type Node struct {
	entry  Entry
	parent *Node
	depth  int // number of entries in the chain, this node included

	// prefix caches the materialized chain (outermost first). It is
	// built on first use and shared by every retainer, so repeated
	// materializations of the same chain cost one copy, not a walk.
	// Goroutines racing to build it build equal stacks.
	prefix atomic.Pointer[Stack]
}

// PushNode extends parent with one caller entry, returning the new
// chain. A nil parent is the empty chain (bottom frame).
func PushNode(parent *Node, e Entry) *Node {
	depth := 1
	if parent != nil {
		depth = parent.depth + 1
	}
	return &Node{entry: e, parent: parent, depth: depth}
}

// Depth returns the number of entries in the chain (0 for nil).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	return n.depth
}

// Prefix materializes the chain as a Stack, outermost first. The result
// is cached and shared: callers must treat it as read-only.
func (n *Node) Prefix() Stack {
	if n == nil {
		return nil
	}
	if p := n.prefix.Load(); p != nil {
		return *p
	}
	p := make(Stack, n.depth)
	for c := n; c != nil; c = c.parent {
		p[c.depth-1] = c.entry
	}
	n.prefix.Store(&p)
	return p
}

// Materialize builds a fresh Stack of the chain plus one innermost
// entry (the currently executing position). The returned slice is newly
// allocated and safe for callers to retain or mutate.
func (n *Node) Materialize(top Entry) Stack {
	d := n.Depth()
	st := make(Stack, d+1)
	copy(st, n.Prefix())
	st[d] = top
	return st
}
