package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
	"swisstm/internal/util"
	"swisstm/internal/wal"
)

// kvWorkload is one traffic mix against the txkv service.
type kvWorkload struct {
	name    string
	mix     txkv.Mix
	durable bool    // group-fsync WAL and commit coalescing on
	rate    float64 // open-loop arrivals per second over all connections; 0 = closed loop
	window  int     // pipelined in-flight window per connection; 0 = synchronous Client
}

var (
	kvRead    = kvWorkload{name: "kv-read", mix: txkv.ReadHeavy}
	kvDurable = kvWorkload{name: "kv-durable", mix: txkv.UpdateHeavy, durable: true, rate: 3000, window: 16}
)

const (
	kvKeys     = 65536
	kvConns    = 2
	kvZipf     = 0.99
	kvSetups   = 9  // set-ups per run; setup_s is their median
	kvRestarts = 11 // restarts per run; recovery_s is their median
	lateAfter  = time.Millisecond
)

// kvInstance is one running server with its client connections.
type kvInstance struct {
	w     kvWorkload
	dir   string // commit log directory ("" with the WAL off)
	srv   *txkvserver.Server
	ctl   *txkvclient.Client // control connection: counters and checks
	sync  []*txkvclient.Client
	pipes []*txkvclient.Pipe
}

// kvArenaWords sizes the engine's arena to the store, twice over: the
// store allocates its slot objects once and updates them in place.
func kvArenaWords() int {
	st := txkv.ConfigForKeys(kvKeys)
	return 2 * st.Shards * st.Slots * 2
}

func (w kvWorkload) serverConfig(dir string) txkvserver.Config {
	cfg := txkvserver.Config{
		Engine: harness.EngineSpec{Kind: "swisstm", ArenaWords: kvArenaWords()},
		Keys:   kvKeys,
		Admin:  "127.0.0.1:0",
	}
	if w.durable {
		cfg.WALDir, cfg.WALSync = dir, wal.SyncGroup
		cfg.CoalesceBatch, cfg.CoalesceWait = 32, 200*time.Microsecond
	}
	return cfg
}

// start brings up a server (engine, prefill, commit log) and dials the
// workload's connections: everything before the first measured op.
func (w kvWorkload) start(dir string) (*kvInstance, error) {
	srv, err := txkvserver.Start("127.0.0.1:0", w.serverConfig(dir))
	if err != nil {
		return nil, err
	}
	in := &kvInstance{w: w, dir: dir, srv: srv}
	addr := srv.Addr().String()
	if in.ctl, err = txkvclient.Dial(addr); err != nil {
		in.close()
		return nil, err
	}
	for i := 0; i < kvConns; i++ {
		if w.window > 0 {
			p, err := txkvclient.DialPipe(addr, w.window)
			if err != nil {
				in.close()
				return nil, err
			}
			in.pipes = append(in.pipes, p)
		} else {
			cl, err := txkvclient.Dial(addr)
			if err != nil {
				in.close()
				return nil, err
			}
			in.sync = append(in.sync, cl)
		}
	}
	return in, nil
}

// close drops the connections and drains the server.
func (in *kvInstance) close() error {
	for _, p := range in.pipes {
		p.Close()
	}
	for _, cl := range in.sync {
		cl.Close()
	}
	if in.ctl != nil {
		in.ctl.Close()
	}
	in.pipes, in.sync, in.ctl = nil, nil, nil
	return in.srv.Drain()
}

// kvPair is one key/value observation.
type kvPair struct{ key, val uint64 }

// kvHistory is what the clients wrote and read, for the correctness
// checks. Reads are checked as they return, against every value sent
// so far, so the run keeps no per-read record.
type kvHistory struct {
	mu      sync.RWMutex
	written map[uint64]uint64 // every value sent in a write (unique) → its key
	badRead error             // the first read no write explains
	acked   [][]kvPair        // per writer, in acknowledgement order
}

// wrote registers a write value before its request is sent.
func (h *kvHistory) wrote(key, val uint64) {
	h.mu.Lock()
	h.written[val] = key
	h.mu.Unlock()
}

// read checks a Get reply: the key is present and holds the prefill
// balance or a value some client sent to that key.
func (h *kvHistory) read(key uint64, found bool, val uint64) {
	h.mu.RLock()
	ok := found && (val == uint64(txkv.DefaultBalance) || h.written[val] == key)
	h.mu.RUnlock()
	if !ok {
		h.mu.Lock()
		if h.badRead == nil {
			h.badRead = fmt.Errorf("get %d returned %#x (found %v), never written to it", key, val, found)
		}
		h.mu.Unlock()
	}
}

// kvWindow is one measured window's outcome.
type kvWindow struct {
	d         time.Duration
	recs      []opRec
	lags      []int64 // open loop: dispatch time − due time
	attempted int64
	failed    int64
	mutations int64      // acknowledged writes (put, swapped CAS)
	reqBytes  []int64    // traced: request frame sizes
	repBytes  []int64    // traced: reply frame sizes
	spans     []*spanBuf // traced
}

// runKV is the kv-read / kv-durable run: set up (repeated), measure,
// check, restart (repeated).
func runKV(c *runCtx, w kvWorkload) error {
	var in *kvInstance
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	var setups, rebuilds []float64
	for i := 0; i < kvSetups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return err
			}
			in = nil
		}
		dir := ""
		if w.durable {
			var err error
			if dir, err = os.MkdirTemp(c.tmp, w.name+"-"); err != nil {
				return err
			}
		}
		settle()
		t0 := time.Now()
		var err error
		if in, err = w.start(dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !w.durable {
			// Without a log a restart is a rebuild: recovery_s is a
			// set-up plus its first served request.
			if _, _, err := in.ctl.Get(1); err != nil {
				return err
			}
			rebuilds = append(rebuilds, time.Since(t0).Seconds())
		}
	}
	c.l.add("setup_s", "s", setups...)
	c.l.add("recovery_s", "s", rebuilds...)

	hist := &kvHistory{written: map[uint64]uint64{}}
	zipf := util.NewZipf(kvKeys, kvZipf)
	var untracedMean float64
	for i, d := range c.windows() {
		traced := c.traced(i)
		var st0 txkvwire.Stats
		var sc0 scrape
		var err error
		if traced {
			if st0, sc0, err = in.counters(); err != nil {
				return err
			}
		}
		win, err := in.measure(c, hist, zipf, i, d, traced)
		if err != nil {
			return err
		}
		c.rep.Attempted += win.attempted
		c.rep.Failed += win.failed
		mean := meanLat(win.recs)
		if !traced {
			untracedMean = mean
			endToEnd(c.l, win.recs, win.d, w.rate > 0)
			if !c.trace {
				win.generator(c.l) // in a traced run, from the traced half
			}
			continue
		}
		st1, sc1, err := in.counters()
		if err != nil {
			return err
		}
		c.l.add("trace.overhead_ratio", "ratio", mean/untracedMean)
		kvLayers(c.l, w, win, diffStats(st0, st1), sc0, sc1)
	}

	final, err := in.checkState(c, hist)
	if err != nil {
		return err
	}
	if err := c.addPeakRSS(); err != nil {
		return err
	}
	dir := in.dir
	err = in.close()
	in = nil
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if !w.durable {
		return nil
	}
	return restarts(c, w, dir, final)
}

// counters reads the server's cumulative counters and histograms.
func (in *kvInstance) counters() (txkvwire.Stats, scrape, error) {
	st, err := in.ctl.Stats()
	if err != nil {
		return st, nil, err
	}
	sc, err := scrapeMetrics(in.srv.AdminAddr().String())
	return st, sc, err
}

// measure runs one window of load and folds the clients' histories
// into hist.
func (in *kvInstance) measure(c *runCtx, hist *kvHistory, zipf *util.Zipf, idx int, d time.Duration, traced bool) (*kvWindow, error) {
	workers := make([]*kvWorker, kvConns)
	for i := range workers {
		writer := idx*kvConns + i
		wk := &kvWorker{
			w: in.w, zipf: zipf, writer: uint64(writer), hist: hist,
			recs:   make([]opRec, 0, expectedOps(in.w, d)),
			rng:    util.NewRand(harness.DeriveSeed(c.seed, c.workload, writer, 0)),
			shards: txkv.ConfigForKeys(kvKeys).Shards,
		}
		wk.ta = &wtrace{sb: c.spanBuf(traced)}
		wk.tb = &wtrace{sb: c.spanBuf(traced && in.w.window > 0)}
		workers[i] = wk
	}
	start := time.Now()
	end := start.Add(d)
	var err error
	if in.w.window > 0 {
		err = in.openLoop(workers, start, end)
	} else {
		err = in.closedLoop(workers, start, end)
	}
	if err != nil {
		return nil, err
	}
	win := &kvWindow{d: d}
	for _, wk := range workers {
		win.recs = append(win.recs, wk.recs...)
		win.lags = append(win.lags, wk.lags...)
		win.attempted += wk.attempted
		win.failed += wk.failed
		win.mutations += int64(len(wk.acked))
		for _, t := range []*wtrace{wk.ta, wk.tb} {
			if t.sb != nil {
				win.reqBytes = append(win.reqBytes, t.reqBytes...)
				win.repBytes = append(win.repBytes, t.repBytes...)
				win.spans = append(win.spans, t.sb)
			}
		}
		hist.acked = append(hist.acked, wk.acked)
	}
	return win, nil
}

// kvWorker is one client connection's load state. In the open loop a
// submitter and a collector goroutine share it: the submitter owns
// rng, lags and ta; the collector owns recs, acked, the counters and
// tb; seq and hist are safe to share. The closed loop uses ta only.
type kvWorker struct {
	w      kvWorkload
	zipf   *util.Zipf
	rng    *util.Rand
	writer uint64
	seq    atomic.Uint64
	shards int
	hist   *kvHistory

	lags []int64
	ta   *wtrace

	recs      []opRec
	acked     []kvPair
	attempted int64
	failed    int64
	tb        *wtrace
}

// expectedOps sizes a connection's record buffer for a window.
func expectedOps(w kvWorkload, d time.Duration) int {
	perSec := 25000 // closed loop: about what one connection completes
	if w.rate > 0 {
		perSec = int(w.rate)/kvConns + 1
	}
	return int(d.Seconds()*float64(perSec)) + 1
}

// wtrace is one goroutine's tracing state; its span log is nil when
// untraced, and then it records nothing.
type wtrace struct {
	sb       *spanBuf
	wbuf     []byte
	reqBytes []int64 // request frame sizes
	repBytes []int64 // reply frame sizes
}

// encode times the benchmark's own txkvwire encode of req.
func (t *wtrace) encode(root uint64, req txkvwire.Req) {
	if t.sb == nil {
		return
	}
	t0 := time.Now()
	buf, err := txkvwire.AppendReq(t.wbuf[:0], req)
	t.sb.record(spWireEncode, root, t0, time.Now())
	if err == nil {
		t.wbuf = buf
		t.reqBytes = append(t.reqBytes, int64(len(buf)+4))
	}
}

// decode times the benchmark's own txkvwire decode of reply's frame.
func (t *wtrace) decode(root uint64, reply txkvwire.Reply) {
	if t.sb == nil {
		return
	}
	buf, err := txkvwire.AppendReply(nil, reply)
	if err != nil {
		return
	}
	t0 := time.Now()
	_, err = txkvwire.DecodeReply(buf)
	t.sb.record(spWireDecode, root, t0, time.Now())
	if err == nil {
		t.repBytes = append(t.repBytes, int64(len(buf)+4))
	}
}

func (wk *kvWorker) key() uint64 { return uint64(wk.zipf.Next(wk.rng) + 1) }

// nextVal mints a write value unique across the run.
func (wk *kvWorker) nextVal() uint64 { return (wk.writer+1)<<40 | wk.seq.Add(1) }

// nextReq draws the next operation of the mix. A CAS starts as the Get
// of its read-then-swap pair.
func (wk *kvWorker) nextReq() (req txkvwire.Req, cas bool) {
	m := wk.w.mix
	r := wk.rng.Intn(100)
	switch {
	case r < m.ReadPct:
		return txkvwire.Req{Op: txkvwire.OpGet, Key: wk.key()}, false
	case r < m.ReadPct+m.UpdatePct:
		req = txkvwire.Req{Op: txkvwire.OpPut, Key: wk.key(), Val: wk.nextVal()}
		wk.hist.wrote(req.Key, req.Val)
		return req, false
	case r < m.ReadPct+m.UpdatePct+m.CASPct:
		return txkvwire.Req{Op: txkvwire.OpGet, Key: wk.key()}, true
	case r < m.ReadPct+m.UpdatePct+m.CASPct+m.ScanPct:
		return txkvwire.Req{Op: txkvwire.OpSum, Shard: int32(wk.rng.Intn(wk.shards))}, false
	}
	panic(fmt.Sprintf("mix %s has ops the benchmark does not issue", m.Name))
}

func clientSpan(op txkvwire.Op) spanName {
	switch op {
	case txkvwire.OpGet:
		return spClientGet
	case txkvwire.OpPut:
		return spClientPut
	case txkvwire.OpCAS:
		return spClientCAS
	}
	return spClientScan
}

// observe folds one reply into the worker's history and reports
// whether the op failed.
func (wk *kvWorker) observe(req txkvwire.Req, reply txkvwire.Reply) (failed bool) {
	if reply.Err != "" {
		return true
	}
	switch req.Op {
	case txkvwire.OpGet:
		wk.hist.read(req.Key, reply.Found, reply.Val)
	case txkvwire.OpPut:
		wk.acked = append(wk.acked, kvPair{req.Key, req.Val})
	case txkvwire.OpCAS:
		if reply.OK {
			wk.acked = append(wk.acked, kvPair{req.Key, req.Val})
		}
	}
	return false
}

// closedLoop: each connection issues its next op when the previous one
// is answered, until the window ends.
func (in *kvInstance) closedLoop(workers []*kvWorker, start, end time.Time) error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *kvWorker, cl *txkvclient.Client) {
			defer wg.Done()
			errs[i] = wk.closed(cl, start, end)
		}(i, wk, in.sync[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (wk *kvWorker) closed(cl *txkvclient.Client, start, end time.Time) error {
	t := wk.ta
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return nil
		}
		req, cas := wk.nextReq()
		if cas {
			return fmt.Errorf("closed loop does not issue CAS")
		}
		root := t.sb.newID()
		t.encode(root, req)
		c0 := time.Now()
		reply, err := cl.Do(req)
		c1 := time.Now()
		if err != nil {
			return err
		}
		t.sb.record(clientSpan(req.Op), root, c0, c1)
		t.decode(root, reply)
		wk.attempted++
		if wk.observe(req, reply) {
			wk.failed++
		}
		t1 := time.Now()
		t.sb.add(root, 0, spOp, t0, t1)
		wk.recs = append(wk.recs, newOpRec(t0.Sub(start), t1.Sub(t0)))
	}
}

// plTag follows one logical operation through a Pipe.
type plTag struct {
	due, sent time.Time // scheduled arrival; this frame's submit
	req       txkvwire.Req
	cas       bool // the Get of a read-then-swap pair
	root      uint64
	fin       int64 // > 0: the submitter's closing frame, carrying its op count + 1
}

// openLoop: arrivals at a fixed rate regardless of completions, dealt
// to the connections in turn. Each op's latency runs from when it was
// due, so a stalled generator or a full window is charged to the run.
func (in *kvInstance) openLoop(workers []*kvWorker, start, end time.Time) error {
	n := int(end.Sub(start).Seconds()*in.w.rate) + 1
	tokens := make([]chan time.Time, len(workers))
	for i := range tokens {
		// Room for every arrival, so the generator never blocks on a
		// slow connection: the backlog shows as lateness instead.
		tokens[i] = make(chan time.Time, n/len(workers)+1)
	}
	interval := float64(time.Second) / in.w.rate
	errs := make([]error, 2*len(workers))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // generator
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) * interval))
			if !due.Before(end) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			tokens[i%len(tokens)] <- due
		}
		for _, t := range tokens {
			close(t)
		}
	}()
	for i, wk := range workers {
		p := in.pipes[i]
		wg.Add(2)
		go func(i int, wk *kvWorker) {
			defer wg.Done()
			if errs[2*i] = wk.submit(p, tokens[i]); errs[2*i] != nil {
				p.Close()
				for range tokens[i] { // let the generator finish
				}
			}
		}(i, wk)
		go func(i int, wk *kvWorker) {
			defer wg.Done()
			if errs[2*i+1] = wk.collect(p, start); errs[2*i+1] != nil {
				p.Close()
			}
		}(i, wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// submit sends one op per arrival token, then a closing Len frame that
// tells the collector how many ops to expect.
func (wk *kvWorker) submit(p *txkvclient.Pipe, tokens <-chan time.Time) error {
	t := wk.ta
	var n int64
	for due := range tokens {
		req, cas := wk.nextReq()
		tag := &plTag{due: due, req: req, cas: cas, root: t.sb.newID()}
		t.encode(tag.root, req)
		tag.sent = time.Now()
		wk.lags = append(wk.lags, tag.sent.Sub(due).Nanoseconds())
		if err := p.Submit(req, tag, true, !cas); err != nil {
			return err
		}
		n++
	}
	return p.Submit(txkvwire.Req{Op: txkvwire.OpLen}, &plTag{fin: n + 1}, true, true)
}

// collect consumes replies in order until every op the submitter sent
// has completed, issuing each CAS when its read returns.
func (wk *kvWorker) collect(p *txkvclient.Pipe, start time.Time) error {
	t := wk.tb
	var done, want int64 = 0, -1
	for want < 0 || done < want {
		tagAny, _, reply, err := p.Recv()
		if err != nil {
			return err
		}
		now := time.Now()
		tag := tagAny.(*plTag)
		if tag.fin > 0 {
			want = tag.fin - 1
			continue
		}
		t.sb.record(clientSpan(tag.req.Op), tag.root, tag.sent, now)
		t.decode(tag.root, reply)
		if tag.cas {
			tag.cas = false
			if reply.Err == "" && reply.Found {
				wk.hist.read(tag.req.Key, true, reply.Val)
				tag.req = txkvwire.Req{Op: txkvwire.OpCAS, Key: tag.req.Key, Old: reply.Val, Val: wk.nextVal()}
				wk.hist.wrote(tag.req.Key, tag.req.Val)
				t.encode(tag.root, tag.req)
				tag.sent = time.Now()
				if err := p.Submit(tag.req, tag, false, true); err != nil {
					return err
				}
				continue
			}
			p.Release() // the read failed: the op ends here
		}
		wk.attempted++
		if wk.observe(tag.req, reply) {
			wk.failed++
		}
		t1 := time.Now()
		t.sb.add(tag.root, 0, spOp, tag.due, t1)
		wk.recs = append(wk.recs, newOpRec(tag.due.Sub(start), t1.Sub(tag.due)))
		done++
	}
	return nil
}
