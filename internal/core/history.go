package core

import (
	"bytes"

	"minuet/internal/wire"
)

// Vertical and horizontal version queries. §5 cites Landau et al.'s query
// model for branching versions: "vertical queries access a version and its
// ancestors in the version tree, while horizontal queries access multiple
// descendants of the same version". With the snapshot catalog and
// cross-version reads already in place, both are thin compositions —
// provided here because they are the natural read API for what-if analysis
// (how did this key evolve along a line of history? how does it differ
// across my open scenarios?).

// VersionValue is one version's view of a key.
type VersionValue struct {
	Sid     uint64
	Val     []byte
	Present bool
}

// KeyHistory is a vertical query: the value of k at version sid and at
// every ancestor, ordered root-first (oldest history first). Branching
// mode only.
func (bt *BTree) KeyHistory(sid uint64, k wire.Key) ([]VersionValue, error) {
	if err := bt.requireBranching(); err != nil {
		return nil, err
	}
	// Collect the ancestor chain (immutable catalog fields).
	var chain []uint64
	cur := sid
	for {
		chain = append(chain, cur)
		e, err := bt.cat.Get(cur)
		if err != nil {
			return nil, err
		}
		if e.Parent == 0 {
			break
		}
		cur = e.Parent
	}
	// Reverse to root-first order and read each version.
	out := make([]VersionValue, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		v, ok, err := bt.GetAt(chain[i], k)
		if err != nil {
			return nil, err
		}
		out = append(out, VersionValue{Sid: chain[i], Val: v, Present: ok})
	}
	return out, nil
}

// KeyChanges is KeyHistory filtered to the versions where the value
// actually changed (including appearance and disappearance).
func (bt *BTree) KeyChanges(sid uint64, k wire.Key) ([]VersionValue, error) {
	hist, err := bt.KeyHistory(sid, k)
	if err != nil {
		return nil, err
	}
	out := hist[:0]
	var prev *VersionValue
	for i := range hist {
		h := hist[i]
		if prev == nil {
			if h.Present {
				out = append(out, h)
				prev = &hist[i]
			}
			continue
		}
		if h.Present != prev.Present || (h.Present && !bytes.Equal(h.Val, prev.Val)) {
			out = append(out, h)
		}
		prev = &hist[i]
	}
	return out, nil
}

// KeyAcrossTips is a horizontal query: the value of k at every writable
// tip descending from version `from` (inclusive if `from` itself is still
// writable), in version-id order. Branching mode only.
func (bt *BTree) KeyAcrossTips(from uint64, k wire.Key) ([]VersionValue, error) {
	if err := bt.requireBranching(); err != nil {
		return nil, err
	}
	entries, err := bt.ListVersions()
	if err != nil {
		return nil, err
	}
	var out []VersionValue
	for _, e := range entries {
		if !e.Writable() {
			continue
		}
		ok, err := bt.cat.IsAncestorOrSelf(from, e.Sid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		v, present, err := bt.GetAt(e.Sid, k)
		if err != nil {
			return nil, err
		}
		out = append(out, VersionValue{Sid: e.Sid, Val: v, Present: present})
	}
	return out, nil
}
