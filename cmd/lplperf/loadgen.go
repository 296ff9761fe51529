package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lpltsp/internal/graph"
)

// maxOutstanding caps requests in flight during an open-loop step; an
// arrival finding the cap reached is not sent and counts as failed.
const maxOutstanding = 8192

// Synthetic statuses for requests that never reached a handler.
const statusOverflow = -1

// recorder is the in-memory ResponseWriter every request is served into:
// no sockets, so the numbers measure the handler and below.
type recorder struct {
	hdr    http.Header
	buf    bytes.Buffer
	status int
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

// Flush lets the NDJSON batch stream run its flush path; the buffer needs
// no action.
func (w *recorder) Flush() {}

var recorders = sync.Pool{New: func() any { return &recorder{hdr: http.Header{}} }}

// serve sends q to h and returns the status and, when keep is set, a copy
// of the body. The request is built here, at send time, from the
// pre-generated body.
func serve(h http.Handler, q *request, keep bool) (int, []byte) {
	rec := recorders.Get().(*recorder)
	h.ServeHTTP(rec, q.httpRequest())
	status := rec.code()
	var body []byte
	if keep {
		body = bytes.Clone(rec.buf.Bytes())
	}
	clear(rec.hdr)
	rec.buf.Reset()
	rec.status = 0
	recorders.Put(rec)
	return status, body
}

// code is the response status; a handler that never set one answered 200.
func (w *recorder) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (q *request) httpRequest() *http.Request {
	path, ctype := "/v1/solve", "application/json"
	switch q.kind {
	case kindGraphs:
		path = "/v1/graphs"
	case kindBatch:
		path = "/v1/batch"
	case kindBinary:
		ctype = graph.BinaryContentType
	}
	return &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Scheme: "http", Host: "lplperf", Path: path},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {ctype}},
		Body:          io.NopCloser(bytes.NewReader(q.body)),
		ContentLength: int64(len(q.body)),
		Host:          "lplperf",
	}
}

// arrival is one scheduled request of an open-loop step.
type arrival struct {
	at  time.Duration // intended send time, from the step start
	req *request
	// keep marks responses checked after the step: every one on the cold
	// workloads, a seeded 1-in-64 sample on the hot ones.
	keep bool
}

// outcome is what one request produced.
type outcome struct {
	lat    time.Duration // intended send time → last response byte
	status int
	body   []byte
}

// openRun is the raw record of one open-loop step.
type openRun struct {
	out            []outcome
	lags           []time.Duration
	outstandingMax int64
	drain          time.Duration // last send → last response
	wall           time.Duration // step start → last response
}

// runOpen drives one open-loop step. A single dispatcher sends every
// arrival already due, each on its own goroutine, then sleeps until the
// next one is due; it never waits for a response, so a stalled handler
// cannot delay later sends and the stall shows in their latencies.
func runOpen(front func(*request) http.Handler, arr []arrival) *openRun {
	n := len(arr)
	run := &openRun{out: make([]outcome, n), lags: make([]time.Duration, n)}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; {
		for ; i < n; i++ {
			now := time.Since(start)
			if arr[i].at > now {
				break
			}
			run.lags[i] = now - arr[i].at
			if outstanding.Load() >= maxOutstanding {
				run.out[i] = outcome{status: statusOverflow}
				continue
			}
			if o := outstanding.Add(1); o > run.outstandingMax {
				run.outstandingMax = o
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer outstanding.Add(-1)
				a := &arr[i]
				status, body := serve(front(a.req), a.req, a.keep)
				run.out[i] = outcome{lat: time.Since(start) - a.at, status: status, body: body}
			}(i)
		}
		if i < n {
			sleepUntil(start, arr[i].at)
		}
	}
	lastSend := time.Now()
	wg.Wait()
	run.drain = time.Since(lastSend)
	run.wall = time.Since(start)
	return run
}

// sleepUntil blocks until start+at. time.Sleep wakes on the runtime's
// millisecond poller granularity when the process is idle, which would
// put ~1 ms of generator lag on every arrival, so the last stretch uses
// nanosleep (tens of µs of overshoot).
func sleepUntil(start time.Time, at time.Duration) {
	const coarse = 2 * time.Millisecond
	d := at - time.Since(start)
	if d > coarse {
		time.Sleep(d - coarse)
		d = at - time.Since(start)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake only shortens the wait
	}
}

// runClosed is one capacity window: nproc clients, each sending its next
// request as soon as the previous one completed, for d. It returns the
// successful and failed completions and the window's length.
func runClosed(front func(*request) http.Handler, pool []*request, cycle bool, d time.Duration) (ok, failed int, elapsed time.Duration) {
	var next, good, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(pool) {
					if !cycle {
						return
					}
					i %= len(pool)
				}
				if status, _ := serve(front(pool[i]), pool[i], false); status == http.StatusOK {
					good.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(good.Load()), int(bad.Load()), time.Since(start)
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the runtime/metrics the benchmark reports; reading
// them does not stop the world.
type runtimeSample struct {
	liveHeap, allocBytes float64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{liveHeap: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// sampler polls the live heap at 10 Hz and the servers' queue gauges at
// 20 Hz while the open-loop steps run.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	heap     []float64
	queued   []float64
	inflight []float64
}

func startSampler(gauges func() (queued, inflight float64)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			if tick%2 == 0 {
				s.heap = append(s.heap, readRuntime().liveHeap)
			}
			q, f := gauges()
			s.queued = append(s.queued, q)
			s.inflight = append(s.inflight, f)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
