package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/collector"
	"quepa/internal/core"
	"quepa/internal/middleware"
	"quepa/internal/optimizer"
	"quepa/internal/wal"
)

// explore-write: exploration sessions on Zipf-chosen windows of a scale-1
// polystore whose A' index the incremental collector keeps, journaled to a
// WAL, while a seeded changefeed rewrites and deletes objects between
// sessions.
const (
	zipfS = 1.1
	// sessionSteps is the number of Steps a session takes after Explore.
	sessionSteps = 3
	// sessionsPerWrite sessions run between two changefeed batches.
	sessionsPerWrite = 5
	// exploreRound is the number of sessions in a round.
	exploreRound = 400
	// A changefeed batch's rewrite is reverted revertAfter batches later;
	// every deleteEvery-th batch deletes an object, restored restoreAfter
	// deletes later.
	revertAfter  = 8
	deleteEvery  = 2
	restoreAfter = 4
	// sessionCheckEvery is the inverse rate of the full reference check.
	sessionCheckEvery = 8
	// popularitySeed fixes which windows are hot.
	popularitySeed = 1
)

// noPromotion keeps path promotion bookkeeping running on every Finish while
// never reaching its threshold: a promoted shortcut is an edge the collector
// does not produce, and the run ends by comparing the index with a fresh
// collector build.
var noPromotion = aindex.PromotionPolicy{BaseThreshold: math.MaxInt32, MinThreshold: math.MaxInt32}

type windowItem struct {
	db string
	lo int
}

type exploreLoad struct {
	d       *deployment
	tombs   map[string]*tombstones
	inc     *collector.Incremental
	coll    *collector.Collector
	wal     *wal.Manager
	dir     string
	tracker *aindex.PathTracker
	buildS  float64

	original                  map[core.GlobalKey]core.Object // the fixture
	corpus                    map[core.GlobalKey]core.Object // the collector's corpus now
	collections               map[[2]string][]core.GlobalKey // sorted keys per collection
	deleted                   map[core.GlobalKey]bool
	deletedSeqs               map[string]map[int]bool
	rewritten                 map[core.GlobalKey]bool
	rewrites                  []core.GlobalKey // rewritten, oldest first
	deletions                 []core.GlobalKey // deleted, oldest first
	rewriteOrder, deleteOrder []core.GlobalKey
	nextRewrite, nextDelete   int
	batches                   int

	items []windowItem
	zipf  *rand.Zipf
	rng   *rand.Rand
	pick  *rand.Rand
	opt   *optimizer.Adaptive
}

func (e *exploreLoad) setup(o options) error {
	e.close()
	e.tombs = map[string]*tombstones{}
	d, err := generate(1, func(s core.Store) core.Store {
		t := newTombstones(s)
		e.tombs[s.Name()] = t
		return t
	})
	if err != nil {
		return err
	}
	e.d = d
	ctx := context.Background()
	var objects []core.Object
	for _, name := range d.built.Databases() {
		objs, err := middleware.ScanAll(ctx, d.raw[name])
		if err != nil {
			return err
		}
		objects = append(objects, objs...)
	}
	sortObjects(objects)
	e.coll, err = collector.New(collector.DefaultConfig())
	if err != nil {
		return err
	}
	start := time.Now()
	e.inc, err = collector.NewIncremental(ctx, e.coll, objects)
	if err != nil {
		return err
	}
	e.buildS = time.Since(start).Seconds()

	e.dir = filepath.Join(workDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), time.Now().UnixNano()))
	dir := e.dir
	d.close = append(d.close, func() { os.RemoveAll(dir) })
	e.wal, err = wal.Open(dir, wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return err
	}
	m := e.wal
	d.close = append(d.close, func() { m.Close() })
	if err := m.Seed(e.inc.Index()); err != nil {
		return err
	}
	d.index = e.inc.Index()
	if err := d.serve(d.built.Poly, d.index, o.trace); err != nil {
		return err
	}
	e.tracker = aindex.NewPathTracker(d.index, noPromotion)
	e.original = make(map[core.GlobalKey]core.Object, len(objects))
	e.corpus = make(map[core.GlobalKey]core.Object, len(objects))
	for _, obj := range objects {
		e.original[obj.GK] = obj
		e.corpus[obj.GK] = obj
	}
	return nil
}

// workDir holds the WAL data directories, inside the checkout the benchmark
// runs from.
const workDir = ".bench_build/perfbench-work"

func sortObjects(objs []core.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].GK.Compare(objs[j].GK) < 0 })
}

func (e *exploreLoad) prepare(o options) error {
	e.rng = rand.New(rand.NewSource(o.seed))
	e.pick = rand.New(rand.NewSource(o.seed + 1))
	albums := e.d.built.Spec.Albums()
	e.items = e.items[:0]
	for _, db := range windowDBs {
		for lo := 0; lo+window <= albums; lo += window {
			e.items = append(e.items, windowItem{db, lo})
		}
	}
	// The popularity ranking of the windows belongs to the workload, not to
	// the seed: every seed draws its sessions from the same hot windows.
	pop := rand.New(rand.NewSource(popularitySeed))
	pop.Shuffle(len(e.items), func(i, j int) { e.items[i], e.items[j] = e.items[j], e.items[i] })
	e.zipf = rand.NewZipf(e.rng, zipfS, 1, uint64(len(e.items)-1))

	// Changefeed targets in a seeded order over the sorted key lists:
	// rewrites over the whole corpus, deletes over the linked objects.
	e.rewriteOrder = e.rewriteOrder[:0]
	e.collections = map[[2]string][]core.GlobalKey{}
	for gk := range e.original {
		e.rewriteOrder = append(e.rewriteOrder, gk)
	}
	sort.Slice(e.rewriteOrder, func(i, j int) bool { return e.rewriteOrder[i].Compare(e.rewriteOrder[j]) < 0 })
	for _, gk := range e.rewriteOrder {
		c := [2]string{gk.Database, gk.Collection}
		e.collections[c] = append(e.collections[c], gk)
	}
	e.rng.Shuffle(len(e.rewriteOrder), func(i, j int) {
		e.rewriteOrder[i], e.rewriteOrder[j] = e.rewriteOrder[j], e.rewriteOrder[i]
	})
	e.deleteOrder = e.d.index.Keys()
	e.rng.Shuffle(len(e.deleteOrder), func(i, j int) {
		e.deleteOrder[i], e.deleteOrder[j] = e.deleteOrder[j], e.deleteOrder[i]
	})
	e.deleted = map[core.GlobalKey]bool{}
	e.deletedSeqs = map[string]map[int]bool{}
	e.rewritten = map[core.GlobalKey]bool{}
	if o.trace {
		e.opt = optimizer.NewAdaptive()
	}
	return nil
}

func (e *exploreLoad) round(l *loop) error {
	for i := 0; i < exploreRound; i++ {
		e.session(l)
		if (i+1)%sessionsPerWrite == 0 {
			if err := e.write(l); err != nil {
				return err
			}
		}
	}
	return nil
}

type stepRecord struct {
	origin core.GlobalKey
	links  []augment.AugmentedObject
}

// session runs one exploration session as one timed read: Explore on a
// window, up to three Steps, each to a seeded choice among the previous
// objects, and Finish.
func (e *exploreLoad) session(l *loop) {
	item := e.items[e.zipf.Uint64()]
	hi := item.lo + window
	q := windowQuery(item.db, item.lo, hi)
	full := e.pick.Intn(sessionCheckEvery) == 0
	var ref *reference
	if full {
		l.offClock(func() { ref = newReference(e.d.index.Edges()) })
	}
	var originals []core.Object
	var steps []stepRecord
	ti, err := l.read("session", func(ctx context.Context) error {
		ex, orig, err := e.d.aug.Explore(ctx, item.db, q, e.tracker)
		if err != nil {
			return err
		}
		originals = orig
		if len(orig) > 0 {
			target := orig[e.rng.Intn(len(orig))].GK
			for s := 0; s < sessionSteps; s++ {
				links, err := ex.Step(ctx, target)
				if err != nil {
					return err
				}
				steps = append(steps, stepRecord{target, links})
				if len(links) == 0 {
					break
				}
				target = links[e.rng.Intn(len(links))].Object.GK
			}
		}
		ex.Finish()
		return nil
	})
	if err != nil {
		return
	}
	l.offClock(func() {
		gone := func(gk core.GlobalKey) bool { return e.deleted[gk] }
		l.check(checkWindow(item.db, item.lo, hi, originals, e.deletedSeqs[item.db]))
		augmented := 0
		for _, st := range steps {
			augmented += len(st.links)
			start := time.Now()
			ranked := (&augment.Answer{Augmented: st.links}).Rank(0, 0)
			if ti.on {
				l.ls.rank += time.Since(start)
			}
			l.check(checkOrdered(st.links, ranked, gone))
			if full {
				l.check(compareAugmented(ref.augment([]core.GlobalKey{st.origin}, 0, gone), st.links))
				l.check(checkObjects(e.d, augmentedObjects(st.links)))
			}
		}
		if full {
			l.check(checkObjects(e.d, originals))
		}
		if e.opt != nil {
			f := readFeatures(e.d, len(originals), augmented, 0)
			observe(l, e.opt, f, ti.wall)
			if ti.on {
				probeLayers(l, e.d, e.opt, item.db, q, f)
			}
		}
	})
}

// write applies one changefeed batch as one timed write. The batch
// rewrites one field of one object and reverts the rewrite made revertAfter
// batches earlier; every deleteEvery-th batch also deletes one linked object
// and restores the one deleted restoreAfter deletes earlier. The corpus thus
// stays within a few objects of the fixture however long the run, and so
// does the cost of reads and writes. A delete or restore changes both the
// object's store and the collector's corpus.
//
// Rewrites reach the collector only, not the stores: QUEPA's object cache
// and outcome memo have no invalidation for store-side updates, so a
// rewritten store object would be served stale.
func (e *exploreLoad) write(l *loop) error {
	var changes []collector.Change
	var del, restore core.GlobalKey
	l.offClock(func() {
		gk := e.next(&e.nextRewrite, e.rewriteOrder)
		changes = append(changes, collector.Change{Kind: collector.Upsert, Object: e.rewrite(gk)})
		e.rewritten[gk] = true
		e.rewrites = append(e.rewrites, gk)
		if len(e.rewrites) > revertAfter {
			old := e.rewrites[0]
			e.rewrites = e.rewrites[1:]
			delete(e.rewritten, old)
			changes = append(changes, collector.Change{Kind: collector.Upsert, Object: e.original[old]})
		}
		e.batches++
		if e.batches%deleteEvery != 0 {
			return
		}
		del = e.next(&e.nextDelete, e.deleteOrder)
		changes = append(changes, collector.Change{Kind: collector.Delete, Object: core.Object{GK: del}})
		e.deletions = append(e.deletions, del)
		if len(e.deletions) > restoreAfter {
			restore = e.deletions[0]
			e.deletions = e.deletions[1:]
			changes = append(changes, collector.Change{Kind: collector.Upsert, Object: e.original[restore]})
		}
	})
	var st collector.DeltaStats
	err := l.write("write", func() error {
		if !del.IsZero() {
			e.tombs[del.Database].set(del.Collection, del.Key, true)
		}
		if !restore.IsZero() {
			e.tombs[restore.Database].set(restore.Collection, restore.Key, false)
		}
		var err error
		st, err = e.inc.Apply(context.Background(), changes)
		return err
	})
	if err != nil {
		return fmt.Errorf("changefeed batch: %w", err)
	}
	l.offClock(func() {
		for _, ch := range changes {
			if ch.Kind == collector.Upsert {
				e.corpus[ch.Object.GK] = ch.Object
			}
		}
		if !del.IsZero() {
			delete(e.corpus, del)
			e.markDeleted(del, true)
		}
		if !restore.IsZero() {
			e.markDeleted(restore, false)
		}
	})
	if !l.warming {
		l.ws.n++
		l.ws.pairs += int64(st.PairsRescored)
		l.ws.keys += int64(st.KeysReplaced)
		l.ws.apply += st.Elapsed
	}
	return nil
}

// next returns the first key of order, from *i on and wrapping around, that
// is neither rewritten nor deleted at the moment.
func (e *exploreLoad) next(i *int, order []core.GlobalKey) core.GlobalKey {
	for {
		gk := order[*i%len(order)]
		*i++
		if !e.rewritten[gk] && !e.deleted[gk] {
			return gk
		}
	}
}

// rewrite returns a copy of gk's object with one field, other than seq and
// the key, set to that field's value in another object of its collection,
// both chosen by the seed.
func (e *exploreLoad) rewrite(gk core.GlobalKey) core.Object {
	out := e.original[gk].Clone()
	var names []string
	for _, n := range out.FieldNames() {
		if n != "seq" && n != "id" && n != "_id" {
			names = append(names, n)
		}
	}
	peers := e.collections[[2]string{gk.Database, gk.Collection}]
	if len(names) == 0 || len(peers) < 2 {
		return out
	}
	name := names[e.rng.Intn(len(names))]
	donor := peers[e.rng.Intn(len(peers))]
	if donor == gk {
		donor = peers[(indexOf(peers, gk)+1)%len(peers)]
	}
	if v, ok := e.original[donor].Field(name); ok {
		out.Fields[name] = v
	}
	return out
}

func indexOf(keys []core.GlobalKey, gk core.GlobalKey) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i].Compare(gk) >= 0 })
}

// markDeleted records a delete or a restore for the checks.
func (e *exploreLoad) markDeleted(gk core.GlobalKey, gone bool) {
	if gone {
		e.deleted[gk] = true
	} else {
		delete(e.deleted, gk)
	}
	if windowCollection[gk.Database] != gk.Collection {
		return
	}
	v, _ := e.original[gk].Field("seq")
	n, err := strconv.Atoi(v)
	if err != nil {
		return
	}
	if e.deletedSeqs[gk.Database] == nil {
		e.deletedSeqs[gk.Database] = map[int]bool{}
	}
	if gone {
		e.deletedSeqs[gk.Database][n] = true
	} else {
		delete(e.deletedSeqs[gk.Database], n)
	}
}

// exactRounds covers 2,000 sessions and 400 changefeed batches.
func (e *exploreLoad) exactRounds() int { return 5 }

func (e *exploreLoad) counters() exact { return e.d.counters() }

func (e *exploreLoad) layers() layerCounters {
	c := e.d.layers()
	c.walBytes = dirSize(e.dir)
	return c
}

// finish runs the durability checks: the incrementally kept index must
// equal a fresh collector build over the final corpus, and a copy of the
// WAL data dir must recover the same edges and epoch.
func (e *exploreLoad) finish(l *loop) error {
	l.diag["write_p50_ms"] = ms(percentile(l.writes, 0.50))
	l.diag["write_p90_ms"] = ms(percentile(l.writes, 0.90))
	l.diag["collector_apply_ms_per_write"] = ratio(ms(l.ws.apply), float64(l.ws.n))
	l.diag["collector_build_s"] = e.buildS
	l.diag["index_nodes"] = e.d.index.NodeCount()
	l.diag["index_edges"] = e.d.index.EdgeCount()

	ctx := context.Background()
	final := make([]core.Object, 0, len(e.corpus))
	for _, obj := range e.corpus {
		final = append(final, obj)
	}
	sortObjects(final)
	fresh, _, err := e.coll.BuildIndex(ctx, final)
	if err != nil {
		return err
	}
	live, liveEpoch := e.d.index.EdgesWithEpoch()
	if err := sameRelations(live, fresh.Edges()); err != nil {
		return fmt.Errorf("incremental index against a fresh build: %w", err)
	}

	copyDir := e.dir + "-copy"
	defer os.RemoveAll(copyDir)
	if err := copyFiles(e.dir, copyDir); err != nil {
		return err
	}
	m, err := wal.Open(copyDir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		return fmt.Errorf("recovering a copy of the WAL: %w", err)
	}
	defer m.Abort()
	if !m.Recovered() {
		return fmt.Errorf("a copy of the WAL recovered nothing")
	}
	// Recovery reports the last journaled epoch; replay bumps the index's
	// own counter once per replayed op, so that one may only run ahead.
	rec, recEpoch := m.Index().EdgesWithEpoch()
	if err := sameRelations(rec, live); err != nil {
		return fmt.Errorf("WAL recovery: %w", err)
	}
	if last := m.Recovery().LastEpoch; last != liveEpoch || recEpoch < liveEpoch {
		return fmt.Errorf("WAL recovery reached epoch %d (index %d), the live index is at %d", last, recEpoch, liveEpoch)
	}

	start := time.Now()
	if err := e.wal.Checkpoint(); err != nil {
		return err
	}
	l.diag["wal_checkpoint_ms"] = ms(time.Since(start))
	return nil
}

func (e *exploreLoad) release() {
	e.original, e.corpus, e.collections = nil, nil, nil
	e.deleted, e.deletedSeqs, e.rewritten = nil, nil, nil
	e.rewrites, e.deletions, e.rewriteOrder, e.deleteOrder = nil, nil, nil, nil
}

func (e *exploreLoad) close() {
	e.d.shutdown()
	e.d = nil
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, en := range entries {
		if info, err := en.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

func copyFiles(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, en := range entries {
		if en.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(from, en.Name()), filepath.Join(to, en.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
