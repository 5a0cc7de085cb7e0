package core

import "minuet/internal/wire"

// Cursor streams a snapshot's key-value pairs in key order without
// materializing the whole range: it fetches one leaf at a time (one round
// trip with a warm proxy cache) and steps to the next leaf using the high
// fence. Because the underlying snapshot is immutable, a cursor can be
// paused, resumed, or abandoned at any point with no transactional state.
//
// Cursors are the streaming complement to ScanSnapshot: analytics that
// aggregate more data than fits in memory iterate instead of collecting.
type Cursor struct {
	w    leafWalk
	err  error
	done bool
}

// NewCursor opens a cursor over a read-only snapshot, positioned at the
// first key ≥ start (nil = the smallest key).
func (bt *BTree) NewCursor(s Snapshot, start wire.Key) *Cursor {
	c := &Cursor{w: leafWalk{bt: bt, tg: snapTarget(s), next: start}}
	c.fill()
	return c
}

// fill advances across exhausted leaves (deletions can leave empty ones)
// until a key is available or the key space ends.
func (c *Cursor) fill() {
	for !c.done && (c.w.leaf == nil || c.w.pos >= c.w.leaf.len()) {
		if c.w.last {
			c.done = true
		} else if c.err = c.w.step(); c.err != nil {
			c.done = true
		}
	}
}

// Next advances to the next pair, reporting false at the end of the key
// space or on error (check Err).
func (c *Cursor) Next() bool {
	c.fill()
	return !c.done
}

// Key returns the current key. Valid after Next returns true, until the
// next call to Next. Like a KV it aliases the leaf image: read-only.
func (c *Cursor) Key() wire.Key { return c.w.leaf.key(c.w.pos) }

// Value returns the current value (read-only, like Key).
func (c *Cursor) Value() []byte { return c.w.leaf.val(c.w.pos) }

// Advance moves past the current pair (call after consuming Key/Value).
func (c *Cursor) Advance() { c.w.pos++ }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Each iterates fn over the remaining pairs; fn returning false stops
// early. Returns the cursor's error state.
func (c *Cursor) Each(fn func(key wire.Key, val []byte) bool) error {
	for c.Next() {
		if !fn(c.Key(), c.Value()) {
			return c.err
		}
		c.Advance()
	}
	return c.err
}
