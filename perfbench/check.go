package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"quepa/internal/augment"
	"quepa/internal/core"
)

// This file is the answer checker. It shares no code with QUEPA's traversal:
// the reference is computed here from the p-relations the index exports.

// reference is Definition 2 over an exported edge list: every key within
// level+1 hops of an origin, with the best product of probabilities over the
// paths of at most level+1 edges, and its hop distance.
type reference struct {
	adj map[core.GlobalKey][]refEdge
}

type refEdge struct {
	to   core.GlobalKey
	prob float64
}

type refHit struct {
	Key  core.GlobalKey
	Prob float64
	Dist int
}

func newReference(edges []core.PRelation) *reference {
	r := &reference{adj: map[core.GlobalKey][]refEdge{}}
	for _, e := range edges {
		r.adj[e.From] = append(r.adj[e.From], refEdge{e.To, e.Prob})
		r.adj[e.To] = append(r.adj[e.To], refEdge{e.From, e.Prob})
	}
	return r
}

// reach returns every key reachable from origin within level+1 hops, the
// origin excluded.
func (r *reference) reach(origin core.GlobalKey, level int) map[core.GlobalKey]refHit {
	hops := level + 1
	// Hop distances, breadth first.
	dist := map[core.GlobalKey]int{origin: 0}
	layer := []core.GlobalKey{origin}
	for h := 1; h <= hops; h++ {
		var next []core.GlobalKey
		for _, u := range layer {
			for _, e := range r.adj[u] {
				if _, seen := dist[e.to]; !seen {
					dist[e.to] = h
					next = append(next, e.to)
				}
			}
		}
		layer = next
	}
	// Bellman-Ford rounds: after round h, best holds the highest product
	// over the paths of at most h edges.
	best := map[core.GlobalKey]float64{origin: 1}
	for h := 1; h <= hops; h++ {
		next := make(map[core.GlobalKey]float64, len(best))
		for k, p := range best {
			next[k] = p
		}
		for u, pu := range best {
			for _, e := range r.adj[u] {
				if p := pu * e.prob; p > next[e.to] {
					next[e.to] = p
				}
			}
		}
		best = next
	}
	out := make(map[core.GlobalKey]refHit, len(best))
	for k, p := range best {
		if k != origin {
			out[k] = refHit{Key: k, Prob: p, Dist: dist[k]}
		}
	}
	return out
}

// augment is the expected augmentation of a set of origins: the union of
// their reaches without the origins themselves and without deleted keys,
// each key at its best probability (the shorter distance on a tie), ordered
// by decreasing probability and then by key.
func (r *reference) augment(origins []core.GlobalKey, level int, gone func(core.GlobalKey) bool) []refHit {
	isOrigin := map[core.GlobalKey]bool{}
	for _, o := range origins {
		isOrigin[o] = true
	}
	merged := map[core.GlobalKey]refHit{}
	for _, o := range origins {
		for k, h := range r.reach(o, level) {
			if isOrigin[k] || (gone != nil && gone(k)) {
				continue
			}
			old, seen := merged[k]
			if !seen || h.Prob > old.Prob || (h.Prob == old.Prob && h.Dist < old.Dist) {
				merged[k] = h
			}
		}
	}
	out := make([]refHit, 0, len(merged))
	for _, h := range merged {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Key.Compare(out[j].Key) < 0
	})
	return out
}

// compareAugmented checks an augmented answer against the reference,
// element by element: same keys in the same order, same probabilities and
// distances.
func compareAugmented(want []refHit, got []augment.AugmentedObject) error {
	if len(got) != len(want) {
		return fmt.Errorf("augmented answer has %d objects, the reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Object.GK != w.Key || g.Prob != w.Prob || g.Dist != w.Dist {
			return fmt.Errorf("augmented[%d] = %v p=%v d=%d, reference %v p=%v d=%d",
				i, g.Object.GK, g.Prob, g.Dist, w.Key, w.Prob, w.Dist)
		}
	}
	return nil
}

// checkOrdered checks that an augmentation is ordered by non-increasing
// probability, holds no deleted key and that Rank without a threshold
// returned all of it.
func checkOrdered(aug, ranked []augment.AugmentedObject, gone func(core.GlobalKey) bool) error {
	if len(ranked) != len(aug) {
		return fmt.Errorf("Rank(0, 0) kept %d of %d augmented objects", len(ranked), len(aug))
	}
	for i, ao := range aug {
		if i > 0 && ao.Prob > aug[i-1].Prob {
			return fmt.Errorf("augmented[%d] p=%v follows p=%v", i, ao.Prob, aug[i-1].Prob)
		}
		if gone != nil && gone(ao.Object.GK) {
			return fmt.Errorf("augmented answer holds deleted %v", ao.Object.GK)
		}
	}
	return nil
}

// windowCollection is the collection a window query reads on each database.
var windowCollection = map[string]string{
	"catalogue":     "albums",
	"transactions":  "inventory",
	"similar-items": "items",
}

// windowQuery selects the objects with lo <= seq < hi in the database's
// native language.
func windowQuery(db string, lo, hi int) string {
	switch db {
	case "catalogue":
		return fmt.Sprintf(`albums.find({"seq": {"$gte": %d, "$lt": %d}})`, lo, hi)
	case "transactions":
		return fmt.Sprintf("SELECT * FROM inventory WHERE seq >= %d AND seq < %d", lo, hi)
	default:
		return fmt.Sprintf("MATCH (n:items) WHERE n.seq >= %d AND n.seq < %d RETURN n", lo, hi)
	}
}

// checkWindow checks a local result: exactly one object for every seq in
// [lo, hi) of the database's window collection, except the deleted seqs.
func checkWindow(db string, lo, hi int, got []core.Object, deleted map[int]bool) error {
	seen := map[int]bool{}
	for _, o := range got {
		if o.GK.Database != db || o.GK.Collection != windowCollection[db] {
			return fmt.Errorf("window %s[%d,%d) returned %v", db, lo, hi, o.GK)
		}
		v, _ := o.Field("seq")
		f, err := strconv.ParseFloat(v, 64)
		n := int(f)
		if err != nil || float64(n) != f || n < lo || n >= hi || seen[n] || deleted[n] {
			return fmt.Errorf("window %s[%d,%d) returned %v with seq %q", db, lo, hi, o.GK, v)
		}
		seen[n] = true
	}
	want := 0
	for n := lo; n < hi; n++ {
		if !deleted[n] {
			want++
		}
	}
	if len(seen) != want {
		return fmt.Errorf("window %s[%d,%d) returned %d objects, want %d", db, lo, hi, len(seen), want)
	}
	return nil
}

// checkObjects checks that every object equals a direct read of the store
// underneath QUEPA.
func checkObjects(d *deployment, objs []core.Object) error {
	ctx := context.Background()
	for _, o := range objs {
		raw, err := d.fetchRaw(ctx, o.GK)
		if err != nil {
			return fmt.Errorf("direct read of returned %v: %w", o.GK, err)
		}
		if !raw.Equal(o) {
			return fmt.Errorf("returned %v differs from the store's copy", o.GK)
		}
	}
	return nil
}

func augmentedObjects(aug []augment.AugmentedObject) []core.Object {
	out := make([]core.Object, len(aug))
	for i, ao := range aug {
		out[i] = ao.Object
	}
	return out
}

func keysOf(objs []core.Object) []core.GlobalKey {
	out := make([]core.GlobalKey, len(objs))
	for i, o := range objs {
		out[i] = o.GK
	}
	return out
}

// sameRelations compares two canonical edge lists exactly.
func sameRelations(got, want []core.PRelation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d p-relations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("p-relation %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
