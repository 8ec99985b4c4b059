package qindex

import "container/list"

// lru is a minimal LRU map. Not goroutine-safe; the owner locks around
// it.
type lru[K comparable, V any] struct {
	max int
	m   map[K]*list.Element
	l   *list.List
}

type lruPair[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, m: make(map[K]*list.Element), l: list.New()}
}

func (c *lru[K, V]) get(key K) (V, bool) {
	if e, ok := c.m[key]; ok {
		c.l.MoveToFront(e)
		return e.Value.(*lruPair[K, V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts key → val (refreshing an existing key) and reports whether
// an old entry was evicted to stay within the bound.
func (c *lru[K, V]) add(key K, val V) bool {
	if e, ok := c.m[key]; ok {
		e.Value.(*lruPair[K, V]).val = val
		c.l.MoveToFront(e)
		return false
	}
	c.m[key] = c.l.PushFront(&lruPair[K, V]{key: key, val: val})
	if c.max > 0 && c.l.Len() > c.max {
		back := c.l.Back()
		c.l.Remove(back)
		delete(c.m, back.Value.(*lruPair[K, V]).key)
		return true
	}
	return false
}
