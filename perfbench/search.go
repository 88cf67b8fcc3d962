package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"quepa/internal/augment"
	"quepa/internal/optimizer"
	"quepa/internal/validator"
)

// Search workloads: augmented searches at level 2 over 10-object seq windows
// drawn uniformly from the three window databases, on one node
// (search-uniform) or over three wire-served peers (cluster-scatter). Both
// run at scale 4, where the 7,200 possible origins outnumber the 4,096
// entries of the result cache; at scale 2 every origin fits, and after the
// warm-up the cluster answered 99.5% of its reaches from the cache instead
// of scattering them.
const (
	searchScale = 4
	searchLevel = 2
	window      = 10
	// searchRound is the number of searches in a round.
	searchRound = 1000
	// checkEvery is the inverse rate of the full reference check.
	checkEvery = 16
)

var windowDBs = []string{"catalogue", "transactions", "similar-items"}

type searchLoad struct {
	cluster bool
	d       *deployment
	ref     *reference
	rng     *rand.Rand // the operation stream
	pick    *rand.Rand // which operations get the full check
	opt     *optimizer.Adaptive
}

func (s *searchLoad) setup(o options) error {
	s.close()
	d, err := generate(searchScale, nil)
	if err != nil {
		return err
	}
	s.d = d
	if s.cluster {
		return d.serveCluster(o.trace)
	}
	return d.serve(d.built.Poly, d.built.Index, o.trace)
}

func (s *searchLoad) prepare(o options) error {
	s.ref = newReference(s.d.index.Edges())
	s.rng = rand.New(rand.NewSource(o.seed))
	s.pick = rand.New(rand.NewSource(o.seed + 1))
	if o.trace {
		s.opt = optimizer.NewAdaptive()
	}
	return nil
}

func (s *searchLoad) round(l *loop) error {
	albums := s.d.built.Spec.Albums()
	for i := 0; i < searchRound; i++ {
		db := windowDBs[s.rng.Intn(len(windowDBs))]
		lo := s.rng.Intn(albums - window + 1)
		q := windowQuery(db, lo, lo+window)
		full := s.pick.Intn(checkEvery) == 0
		var ans *augment.Answer
		var ranked []augment.AugmentedObject
		ti, err := l.read("search", func(ctx context.Context) error {
			a, err := s.d.aug.Search(ctx, db, q, searchLevel)
			if err != nil {
				return err
			}
			p := probeFrom(ctx)
			start := time.Now()
			ranked = a.Rank(0, 0)
			if p != nil {
				p.addRank(time.Since(start))
			}
			ans = a
			return nil
		})
		if err != nil {
			continue
		}
		l.offClock(func() {
			l.check(checkWindow(db, lo, lo+window, ans.Original, nil))
			l.check(checkOrdered(ans.Augmented, ranked, nil))
			if len(ans.Degraded) > 0 {
				l.check(fmt.Errorf("answer degraded: %+v", ans.Degraded))
			}
			if full {
				l.check(compareAugmented(s.ref.augment(keysOf(ans.Original), searchLevel, nil), ans.Augmented))
				l.check(checkObjects(s.d, ans.Original))
				l.check(checkObjects(s.d, augmentedObjects(ans.Augmented)))
			}
			if s.opt != nil {
				f := readFeatures(s.d, len(ans.Original), len(ans.Augmented), searchLevel)
				observe(l, s.opt, f, ti.wall)
				if ti.on {
					probeLayers(l, s.d, s.opt, db, q, f)
				}
			}
		})
	}
	return nil
}

// exactRounds covers 4,000 searches on one node and 2,000 in the cluster,
// about four seconds of either.
func (s *searchLoad) exactRounds() int {
	if s.cluster {
		return 2
	}
	return 4
}

func (s *searchLoad) counters() exact       { return s.d.counters() }
func (s *searchLoad) layers() layerCounters { return s.d.layers() }
func (s *searchLoad) finish(l *loop) error  { return nil }
func (s *searchLoad) release()              { s.ref = nil }
func (s *searchLoad) close()                { s.d.shutdown(); s.d = nil }

// readFeatures are a read's optimizer features, as quepa-server's observe
// records them.
func readFeatures(d *deployment, result, augmented, level int) optimizer.QueryFeatures {
	return optimizer.QueryFeatures{ResultSize: result, AugmentedSize: augmented, Level: level, NumStores: d.aug.Polystore().Size()}
}

// observe logs a warm-up read to the adaptive optimizer of a traced run, as
// quepa-server's observe logs every search: its features, the configuration
// it ran with and its measured time. Every read runs with the server's
// configuration, so the fastest run of each feature signature, which is what
// the optimizer trains on, always carries that configuration, and the trained
// trees do not depend on timing noise. The optimizer is trained at the first
// traced read.
func observe(l *loop, opt *optimizer.Adaptive, f optimizer.QueryFeatures, wall time.Duration) {
	if l.warming {
		opt.Log(optimizer.RunLog{Features: f, Config: serverConfig, Duration: wall})
	}
}

// probeLayers times, off the clock, the layers a traced read reaches only
// from inside the augmenter: the validator on the read's query, and the
// adaptive optimizer choosing a configuration for the read's features.
func probeLayers(l *loop, d *deployment, opt *optimizer.Adaptive, db, query string, f optimizer.QueryFeatures) {
	ctx := context.Background()
	store, err := d.aug.Polystore().Database(db)
	if err != nil {
		l.check(err)
		return
	}
	start := time.Now()
	_, err = validator.Validate(ctx, store, query)
	l.ls.validate += time.Since(start)
	l.check(err)
	if !opt.Trained() {
		if err := opt.Train(); err != nil {
			l.check(fmt.Errorf("training the optimizer on the warm-up reads: %w", err))
			return
		}
	}
	start = time.Now()
	opt.ChooseExplained(f, serverConfig.CacheSize)
	l.ls.choose += time.Since(start)
	l.ls.chooseN++
}
