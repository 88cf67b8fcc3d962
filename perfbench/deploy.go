package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/netsim"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// serverConfig is quepa-server's default augmenter configuration.
var serverConfig = augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: 4096}

// rcacheCap is quepa-server's default -rcache-cap.
const rcacheCap = 4096

// noSleep replaces netsim's sleeper: every round trip and transfer is still
// counted and charged to SimulatedNetworkTime, but nothing waits for it.
func noSleep(time.Duration) {}

// deployment is one assembled QUEPA: the augmenter a client talks to, the
// layers the metrics read, and what tears it down.
type deployment struct {
	built *workload.Built
	aug   *augment.Augmenter
	index *aindex.Index
	rc    *rcache.Cache
	nets  []*netsim.Store       // every simulated store
	raw   map[string]core.Store // database -> the store under netsim
	wire  *wireCounters         // nil on a single node
	coord *cluster.Coordinator  // nil on a single node
	close []func()
}

func (d *deployment) shutdown() {
	if d == nil {
		return
	}
	for i := len(d.close) - 1; i >= 0; i-- {
		d.close[i]()
	}
	d.close = nil
}

// generate builds the workload polystore at the given scale behind netsim's
// Centralized profile with no sleeping. The data is a fixed fixture, generated
// with the default seed as quepa-server generates it; the run's seed drives
// the operation streams. under, when non-nil, wraps each store beneath its
// netsim layer.
func generate(scale float64, under func(core.Store) core.Store) (*deployment, error) {
	spec := workload.DefaultSpec().Scale(scale)
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		return nil, err
	}
	d := &deployment{built: built, index: built.Index, raw: map[string]core.Store{}}
	poly := core.NewPolystore()
	for _, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			return nil, err
		}
		if under != nil {
			s = under(s)
		}
		ns := netsim.Wrap(s, netsim.Centralized, noSleep)
		if err := poly.Register(ns); err != nil {
			return nil, err
		}
		d.raw[name] = s
		d.nets = append(d.nets, ns)
	}
	built.Poly = poly
	return d, nil
}

// serve wires an augmenter over poly and index the way quepa-server's
// newServer does: breakers on every store, the default configuration and a
// result cache flushed by component surgery. With traced set, a timing
// decorator sits between each breaker and its store.
func (d *deployment) serve(poly *core.Polystore, index *aindex.Index, traced bool) error {
	if traced {
		for _, name := range poly.Databases() {
			s, err := poly.Database(name)
			if err != nil {
				return err
			}
			poly.Deregister(name)
			if err := poly.Register(timedStore{s}); err != nil {
				return err
			}
		}
	}
	if err := resilience.GuardPolystore(poly, resilience.NewSet(resilience.BreakerConfig{})); err != nil {
		return err
	}
	d.aug = augment.New(poly, index, serverConfig)
	d.rc = rcache.New(rcacheCap)
	d.aug.SetResultCache(d.rc)
	index.SetInvalidationHook(d.rc.Invalidate)
	return nil
}

// peers is the cluster size of cluster-scatter.
const peers = 3

// serveCluster turns the deployment into three peers in this process, each a
// cluster.Node served over loopback TCP, with the coordinator on shard 0
// wired as quepa-server -cluster wires it.
func (d *deployment) serveCluster(traced bool) error {
	ring, err := cluster.NewRing(peers, cluster.DefaultVnodes, 0)
	if err != nil {
		return err
	}
	d.wire = &wireCounters{}
	addrs := make([]string, peers)
	var self *cluster.Node
	for shard := 0; shard < peers; shard++ {
		idx, err := cluster.BuildShard(d.built.Index, ring, shard)
		if err != nil {
			return err
		}
		node := cluster.NewNode(shard, idx, d.built.Poly)
		if shard == 0 {
			self = node
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := wire.ServeOn(node, countingListener{ln, d.wire})
		d.close = append(d.close, func() { srv.Close() })
		addrs[shard] = srv.Addr()
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Ring:   ring,
		Peers:  addrs,
		Self:   0,
		Node:   self,
		Client: wire.ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: wire.DefaultPoolSize},
	})
	if err != nil {
		return err
	}
	d.close = append(d.close, coord.Close)
	d.coord = coord
	routed, err := cluster.RoutePolystore(d.built.Poly, coord)
	if err != nil {
		return err
	}
	if err := d.serve(routed, d.built.Index, traced); err != nil {
		return err
	}
	var reacher augment.Reacher = coord
	if traced {
		reacher = timedReacher{coord}
	}
	d.aug.SetReacher(reacher)
	coord.SetResultCache(d.rc)
	self.Index().SetInvalidationHook(d.rc.Invalidate)
	return nil
}

func (d *deployment) counters() exact {
	var e exact
	for _, s := range d.nets {
		e.roundTrips += s.RoundTrips()
		e.simNet += s.SimulatedNetworkTime()
	}
	if d.wire != nil {
		e.wireBytes = d.wire.bytes.Load()
	}
	return e
}

func (d *deployment) layers() layerCounters {
	var c layerCounters
	c.cacheHits, c.cacheMisses = d.aug.Cache().Stats()
	st := d.rc.Stats()
	c.rcHits, c.rcMisses, c.rcInvals = st.Hits, st.Misses, st.Invalidations
	if d.wire != nil {
		c.wireFrames = d.wire.frames.Load()
	}
	if d.coord != nil {
		s, r := d.coord.ReachBytes()
		c.reachBytes = s + r
	}
	return c
}

// fetchRaw reads gk straight from the store under netsim, bypassing every
// QUEPA layer and every counter.
func (d *deployment) fetchRaw(ctx context.Context, gk core.GlobalKey) (core.Object, error) {
	s, ok := d.raw[gk.Database]
	if !ok {
		return core.Object{}, fmt.Errorf("no database %q", gk.Database)
	}
	return s.Get(ctx, gk.Collection, gk.Key)
}

// timedStore books the wall time of every call into the calling read's
// probe, when it carries one.
type timedStore struct{ core.Store }

func (s timedStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	p := probeFrom(ctx)
	if p == nil {
		return s.Store.Get(ctx, collection, key)
	}
	start := time.Now()
	o, err := s.Store.Get(ctx, collection, key)
	p.addCall("fetch", start, time.Now(), 1)
	return o, err
}

func (s timedStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	p := probeFrom(ctx)
	if p == nil {
		return s.Store.GetBatch(ctx, collection, keys)
	}
	start := time.Now()
	out, err := s.Store.GetBatch(ctx, collection, keys)
	p.addCall("batch", start, time.Now(), len(keys))
	return out, err
}

func (s timedStore) Query(ctx context.Context, query string) ([]core.Object, error) {
	p := probeFrom(ctx)
	if p == nil {
		return s.Store.Query(ctx, query)
	}
	start := time.Now()
	out, err := s.Store.Query(ctx, query)
	p.addCall("query", start, time.Now(), 0)
	return out, err
}

// KeyField forwards key-field resolution, which the validator needs.
func (s timedStore) KeyField(ctx context.Context, collection string) (string, error) {
	return keyField(ctx, s.Store, collection)
}

// keyField resolves a collection's key field through the store when it can.
func keyField(ctx context.Context, s core.Store, collection string) (string, error) {
	type keyResolver interface {
		KeyField(context.Context, string) (string, error)
	}
	if kr, ok := s.(keyResolver); ok {
		return kr.KeyField(ctx, collection)
	}
	return "", core.ErrUnsupportedQuery
}

// timedReacher books the wall time of every scatter-gather reach into the
// calling read's probe.
type timedReacher struct{ r augment.Reacher }

func (t timedReacher) ReachScatter(ctx context.Context, origin core.GlobalKey, level int) ([]aindex.Hit, aindex.ReachStats, []augment.Degradation) {
	p := probeFrom(ctx)
	if p == nil {
		return t.r.ReachScatter(ctx, origin, level)
	}
	start := time.Now()
	hits, st, degs := t.r.ReachScatter(ctx, origin, level)
	p.addCall("scatter", start, time.Now(), 0)
	return hits, st, degs
}

// wireCounters count the traffic on the peers' server-side connections.
type wireCounters struct {
	bytes  atomic.Uint64 // read and written
	frames atomic.Uint64 // Write calls: one per response frame
}

type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytes.Add(uint64(n))
	c.c.frames.Add(1)
	return n, err
}

// tombstones is the store layer explore-write deletes through: the engines
// behind the connectors expose no delete through core.Store, so deleted keys
// are hidden here, beneath netsim, exactly as if the engine had dropped them.
type tombstones struct {
	core.Store
	mu   sync.RWMutex
	gone map[[2]string]bool // collection, key
}

func newTombstones(s core.Store) *tombstones {
	return &tombstones{Store: s, gone: map[[2]string]bool{}}
}

// set deletes (gone) or restores one object.
func (t *tombstones) set(collection, key string, gone bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gone {
		t.gone[[2]string{collection, key}] = true
	} else {
		delete(t.gone, [2]string{collection, key})
	}
}

func (t *tombstones) isGone(collection, key string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gone[[2]string{collection, key}]
}

func (t *tombstones) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if t.isGone(collection, key) {
		return core.Object{}, fmt.Errorf("%s/%s/%s: %w", t.Name(), collection, key, core.ErrNotFound)
	}
	return t.Store.Get(ctx, collection, key)
}

func (t *tombstones) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	live := make([]string, 0, len(keys))
	for _, k := range keys {
		if !t.isGone(collection, k) {
			live = append(live, k)
		}
	}
	return t.Store.GetBatch(ctx, collection, live)
}

func (t *tombstones) Query(ctx context.Context, query string) ([]core.Object, error) {
	out, err := t.Store.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	live := out[:0]
	for _, o := range out {
		if !t.isGone(o.GK.Collection, o.GK.Key) {
			live = append(live, o)
		}
	}
	return live, nil
}

// KeyField forwards key-field resolution, which the validator needs.
func (t *tombstones) KeyField(ctx context.Context, collection string) (string, error) {
	return keyField(ctx, t.Store, collection)
}
