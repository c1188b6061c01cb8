// Package lru is the recency list shared by the buffer pool and the
// trigger cache: a doubly linked list whose links live inside the
// listed values, so moving a frame or a description between "pinned"
// and "evictable" allocates nothing (both do it on every Unpin).
package lru

// Node is the link a listed value embeds. Value points back at the
// owner and is set once, when the owner is built.
type Node[T any] struct {
	prev, next *Node[T]
	Value      T
}

// Listed reports whether the node is on a list.
func (n *Node[T]) Listed() bool { return n.next != nil }

// List orders nodes from most to least recently pushed. The zero List
// is empty and ready to use.
type List[T any] struct {
	root Node[T] // sentinel: root.next is the front, root.prev the back
}

// PushFront puts n, which must not be listed, at the front.
func (l *List[T]) PushFront(n *Node[T]) {
	if l.root.next == nil {
		l.root.next, l.root.prev = &l.root, &l.root
	}
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}

// Remove takes n off the list; a node that is not listed stays as it is.
func (l *List[T]) Remove(n *Node[T]) {
	if !n.Listed() {
		return
	}
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

// Back returns the least recently pushed node, or nil when the list is
// empty.
func (l *List[T]) Back() *Node[T] {
	if b := l.root.prev; b != nil && b != &l.root {
		return b
	}
	return nil
}
