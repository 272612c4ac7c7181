// Package coalesce batches single-key txkv operations into per-shard
// group commits (DESIGN.md §14).
//
// Each shard owns a channel batcher and a dedicated engine thread: the
// batcher absorbs items routed by shard affinity, and its worker blocks
// for the first item, takes whatever else is already queued (up to
// BatchSize) and flushes. Batching is self-clocked — a batch is what
// queued up while the previous flush ran — so a lone item never waits
// for company. A flush executes every item of the batch inside ONE v2
// engine transaction on the shard's worker thread and —
// when anything mutated — publishes ONE commit-log frame and ONE
// change-feed publish for the whole batch, amortizing the engine
// commit, the WAL ticket/fsync path, and the feed sequencing across
// the batch.
//
// Per-item semantics: every item completes its own response channel
// with its individual result. A CAS that misses or a delete of an
// absent key fails that item only — the store's single-key operations
// are total (they report their outcome instead of aborting), so the
// batch transaction always commits and items never observe each
// other's failures. An item whose TTL expires while queued is shed
// alone with DeadlineExceeded; the rest of its batch executes. Items
// pending when the coalescer shuts down complete with Draining.
package coalesce

import (
	"sync"
	"time"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

// Op is the single-key operation class a batcher accepts.
type Op uint8

const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpCAS
)

// Result is one item's individual outcome. Err, when non-empty, is a
// typed failure (Code classifies it); Shed additionally marks items
// refused without executing (TTL expiry, drain). The phase fields
// carry the item's share of its batch: QueueNs is the exact
// enqueue→flush wait, the rest divide the batch's transaction, commit
// and log-publish time by the number of items executed.
type Result struct {
	Val   stm.Word
	Found bool // Get: key present
	OK    bool // Put: inserted; Delete: existed; CAS: swapped
	Err   string
	Code  txkvwire.Code
	Shed  bool

	QueueNs  uint64
	TxnNs    uint64
	CommitNs uint64
	WalNs    uint64
}

// Item is one queued operation. Build with NewItem; read the outcome
// from Done, which delivers exactly one Result per accepted item.
type Item struct {
	Op       Op
	Key      stm.Word
	Val      stm.Word // Put value; CAS new value
	Old      stm.Word // CAS expected value
	Deadline time.Time

	enq  time.Time
	done chan Result
}

// NewItem builds an item. A zero deadline means no TTL.
func NewItem(op Op, key, val, old stm.Word, deadline time.Time) *Item {
	return &Item{Op: op, Key: key, Val: val, Old: old, Deadline: deadline,
		done: make(chan Result, 1)}
}

// Done delivers the item's result once Enqueue accepted it.
func (it *Item) Done() <-chan Result { return it.done }

// Metrics is the coalescer's observability surface; NewMetrics wires
// it into a Registry under the txkv_coalesce_* names.
type Metrics struct {
	Batches   *obs.Counter    // flushes executed
	Items     *obs.Counter    // items executed (excludes shed)
	Expired   *obs.Counter    // items shed by TTL expiry inside a batch
	Drained   *obs.Counter    // items completed with Draining at shutdown
	BatchSize *obs.AtomicHist // items per executed flush
	FlushNs   *obs.AtomicHist // flush duration (txn + commit + log publish)
}

// NewMetrics registers the coalescer metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Batches:   reg.Counter("txkv_coalesce_batches_total"),
		Items:     reg.Counter("txkv_coalesce_items_total"),
		Expired:   reg.Counter("txkv_coalesce_expired_total"),
		Drained:   reg.Counter("txkv_coalesce_drained_total"),
		BatchSize: reg.Histogram("txkv_coalesce_batch_size"),
		FlushNs:   reg.Histogram("txkv_coalesce_flush_ns"),
	}
}

// Config tunes the batchers.
type Config struct {
	// BatchSize caps the items one flush takes from the queue
	// (default 32).
	BatchSize int
	// QueueCap bounds each shard's pending items; an enqueue beyond
	// it is shed with Overloaded (default max(4×BatchSize, 256)).
	QueueCap int
	// Metrics defaults to a private unregistered set.
	Metrics *Metrics
	// Conflicts, when set, receives the engine aborts each flush
	// burned, attributed to its shard.
	Conflicts func(shard int, aborts uint64)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.BatchSize
		if c.QueueCap < 256 {
			c.QueueCap = 256
		}
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// Coalescer routes single-key items to per-shard batchers. One
// dedicated engine thread and one worker goroutine per shard; items
// for the same shard execute in enqueue order.
type Coalescer struct {
	store *txkv.Store
	log   *wal.Writer // nil = no commit log
	feeds []*Feed     // nil = no change feed; else one per shard
	cfg   Config
	qs    []*shardQ
	wg    sync.WaitGroup
}

type shardQ struct {
	in     chan *Item
	mu     sync.RWMutex
	closed bool

	// statsMu guards a mirror of the worker thread's cumulative engine
	// stats, refreshed after every flush: the thread itself is only
	// safe to read between its transactions, and only its worker may
	// touch it. Stats() lags by at most one in-progress flush.
	statsMu sync.Mutex
	stats   stm.Stats
}

// New starts one batcher per store shard. threads must hold exactly
// store.Shards() engine threads, each used by its shard's worker
// only. log (nil = none) receives one redo frame per mutating flush;
// feeds (nil = none, else one per shard) receive the flush's committed
// mutations.
func New(store *txkv.Store, threads []stm.Thread, log *wal.Writer, feeds []*Feed, cfg Config) *Coalescer {
	if len(threads) != store.Shards() {
		panic("coalesce: need exactly one engine thread per shard")
	}
	if feeds != nil && len(feeds) != store.Shards() {
		panic("coalesce: need exactly one feed per shard")
	}
	c := &Coalescer{store: store, log: log, feeds: feeds, cfg: cfg.withDefaults()}
	c.qs = make([]*shardQ, store.Shards())
	for i := range c.qs {
		c.qs[i] = &shardQ{in: make(chan *Item, c.cfg.QueueCap)}
		c.wg.Add(1)
		go c.worker(i, threads[i])
	}
	return c
}

// Enqueue routes it to its shard's batcher. An empty code means the
// item was accepted and Done will deliver its result; otherwise the
// item was refused immediately (queue full → Overloaded, shutting
// down → Draining) and Done never fires.
func (c *Coalescer) Enqueue(it *Item) (code txkvwire.Code, errMsg string) {
	sh := c.qs[c.store.ShardOf(it.Key)]
	it.enq = time.Now()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return txkvwire.CodeDraining, "server draining"
	}
	select {
	case sh.in <- it:
		return 0, ""
	default:
		return txkvwire.CodeOverloaded, "coalesce queue full"
	}
}

// Pending reports the items queued on every shard but not yet taken
// by a flush.
func (c *Coalescer) Pending() int {
	n := 0
	for _, sh := range c.qs {
		n += len(sh.in)
	}
	return n
}

// Stats sums the engine counters of every shard worker's thread (the
// commits/aborts the flush transactions burned). Each worker's mirror
// refreshes after its flushes, so the sum lags by at most the flushes
// in progress; after Close it is exact.
func (c *Coalescer) Stats() stm.Stats {
	var sum stm.Stats
	for _, sh := range c.qs {
		sh.statsMu.Lock()
		sum.Add(sh.stats)
		sh.statsMu.Unlock()
	}
	return sum
}

// Close shuts every batcher down and waits for the workers. Items
// still pending complete with Draining; a flush already in progress
// completes normally.
func (c *Coalescer) Close() {
	for _, sh := range c.qs {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			close(sh.in)
		}
		sh.mu.Unlock()
	}
	c.wg.Wait()
}

func (sh *shardQ) isClosed() bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.closed
}

// worker owns one shard: block for the first item, take what is
// already queued without waiting (up to BatchSize), flush, repeat. The
// worker is the queue's only receiver, so a non-empty queue never
// blocks it.
func (c *Coalescer) worker(shard int, th stm.Thread) {
	defer c.wg.Done()
	sh := c.qs[shard]
	fl := &flusher{c: c, shard: shard, th: th}
	batch := make([]*Item, 0, c.cfg.BatchSize)
	for {
		it, ok := <-sh.in
		if !ok {
			return
		}
		batch = append(batch[:0], it)
		for len(batch) < c.cfg.BatchSize && len(sh.in) > 0 {
			batch = append(batch, <-sh.in)
		}
		// Anything still pending when shutdown began is refused, not
		// executed: the drain contract (DESIGN.md §14.3).
		if sh.isClosed() {
			c.refuse(batch)
			for it := range sh.in {
				c.refuse([]*Item{it})
			}
			return
		}
		fl.flush(batch)
	}
}

func (c *Coalescer) refuse(batch []*Item) {
	for _, it := range batch {
		c.cfg.Metrics.Drained.Inc()
		it.done <- Result{Err: "server draining", Code: txkvwire.CodeDraining, Shed: true,
			QueueNs: uint64(time.Since(it.enq))}
	}
}

// flusher is one worker's reusable flush state.
type flusher struct {
	c     *Coalescer
	shard int
	th    stm.Thread

	live   []*Item
	res    []Result
	redo   []txkv.RedoEntry
	events []Event
	buf    []byte
}

// flush executes one batch as one engine transaction, then publishes
// its redo frame and feed events.
func (fl *flusher) flush(batch []*Item) {
	c, m := fl.c, fl.c.cfg.Metrics
	start := time.Now()

	// TTL expiry inside a batch sheds only the expired item: its
	// deadline passed while it waited for the flush, so its queue
	// phase is exactly the time-to-flush.
	fl.live = fl.live[:0]
	mutating := false
	for _, it := range batch {
		if !it.Deadline.IsZero() && start.After(it.Deadline) {
			m.Expired.Inc()
			it.done <- Result{Err: "deadline exceeded while queued for flush",
				Code: txkvwire.CodeDeadlineExceeded, Shed: true,
				QueueNs: uint64(start.Sub(it.enq))}
			continue
		}
		if it.Op != OpGet {
			mutating = true
		}
		fl.live = append(fl.live, it)
	}
	live := fl.live
	if len(live) == 0 {
		return
	}
	if cap(fl.res) < len(live) {
		fl.res = make([]Result, len(live))
	}
	res := fl.res[:len(live)]
	for i := range res {
		res[i] = Result{}
	}

	var (
		logTk    wal.Ticket
		logLive  bool
		feedTk   uint64
		feedLive bool
		bodyNs   uint64
		feed     *Feed
	)
	if c.feeds != nil {
		feed = c.feeds[fl.shard]
	}
	aborts0 := fl.th.Stats().Aborts
	t0 := time.Now()
	if !mutating {
		stm.AtomicRO(fl.th, func(tx stm.TxRO) int {
			bt := time.Now()
			for i, it := range live {
				res[i].Val, res[i].Found = c.store.Get(tx, it.Key)
			}
			bodyNs = uint64(time.Since(bt))
			return 0
		})
	} else {
		stm.Atomic(fl.th, func(tx stm.Tx) int {
			bt := time.Now()
			// Retried attempt: release the failed attempt's tickets and
			// rebuild its outcome from scratch.
			if logLive {
				c.log.Abandon(logTk)
				logLive = false
			}
			if feedLive {
				feed.Abandon(feedTk)
				feedLive = false
			}
			fl.redo = fl.redo[:0]
			fl.events = fl.events[:0]
			for i, it := range live {
				switch it.Op {
				case OpGet:
					res[i].Val, res[i].Found = c.store.Get(tx, it.Key)
				case OpPut:
					res[i].OK = c.store.Put(tx, it.Key, it.Val)
					fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoPut, Key: it.Key, Val: it.Val})
					fl.events = append(fl.events, Event{Key: uint64(it.Key), Val: uint64(it.Val)})
				case OpDelete:
					if res[i].OK = c.store.Delete(tx, it.Key); res[i].OK {
						fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoDelete, Key: it.Key})
						fl.events = append(fl.events, Event{Del: true, Key: uint64(it.Key)})
					}
				case OpCAS:
					if res[i].OK = c.store.CAS(tx, it.Key, it.Old, it.Val); res[i].OK {
						fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoPut, Key: it.Key, Val: it.Val})
						fl.events = append(fl.events, Event{Key: uint64(it.Key), Val: uint64(it.Val)})
					}
				}
			}
			// Tickets last (DESIGN.md §12): every read deciding the
			// batch's outcome precedes the reservations, so ticket order
			// agrees with commit order.
			if len(fl.redo) > 0 && c.log != nil {
				logTk = c.log.Reserve()
				logLive = true
			}
			if len(fl.events) > 0 && feed != nil {
				feedTk = feed.Reserve()
				feedLive = true
			}
			bodyNs = uint64(time.Since(bt))
			return 0
		})
	}
	txnNs := bodyNs
	commitNs := uint64(time.Since(t0)) - bodyNs
	cur := fl.th.Stats()
	sh := c.qs[fl.shard]
	sh.statsMu.Lock()
	sh.stats = cur
	sh.statsMu.Unlock()
	if c.cfg.Conflicts != nil {
		if d := cur.Aborts - aborts0; d > 0 {
			c.cfg.Conflicts(fl.shard, d)
		}
	}

	// The feed reflects the in-memory commit, which already happened;
	// publish before the durability wait so tailers are not gated on
	// fsync latency.
	if feedLive {
		feed.Publish(feedTk, fl.events)
	}
	var walNs uint64
	var walErr error
	if logLive {
		var buf []byte
		buf, walErr = txkv.AppendRedo(fl.buf[:0], fl.redo)
		fl.buf = buf[:0]
		wt := time.Now()
		if walErr == nil {
			walErr = c.log.Publish(logTk, buf)
		} else {
			c.log.Abandon(logTk)
		}
		walNs = uint64(time.Since(wt))
	}

	m.Batches.Inc()
	m.Items.Add(uint64(len(live)))
	m.BatchSize.Record(uint64(len(live)))
	m.FlushNs.Record(uint64(time.Since(start)))

	n := uint64(len(live))
	for i, it := range live {
		r := res[i]
		if walErr != nil && mutated(it, r) {
			// The batch's frame never became durable: refuse the ack for
			// every item that contributed to it.
			r = Result{Err: "wal: " + walErr.Error(), Code: txkvwire.CodeInternal}
		}
		r.QueueNs = uint64(start.Sub(it.enq))
		r.TxnNs = txnNs / n
		r.CommitNs = commitNs / n
		r.WalNs = walNs / n
		it.done <- r
	}
}

// mutated reports whether the item contributed an entry to its batch's
// redo frame.
func mutated(it *Item, r Result) bool {
	switch it.Op {
	case OpPut:
		return true
	case OpDelete, OpCAS:
		return r.OK
	}
	return false
}
