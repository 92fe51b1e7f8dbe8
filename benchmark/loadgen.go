package main

import (
	"bytes"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one timed operation. at is when it was sent (closed loop) or
// due (open loop), as an offset from the phase start; lat runs from at
// to the last byte of the reply, so an open-loop request that had to
// wait for its connection is charged the wait.
type sample struct {
	kind opKind
	at   time.Duration
	lat  time.Duration
	late time.Duration // open loop: how long after `at` it was actually sent
	fail bool
}

// loadgen drives one server from one process over a fixed number of
// keep-alive connections, one worker goroutine per connection.
type loadgen struct {
	url    string
	conns  int
	client *http.Client
	src    *source
	// check judges a reply after its latency is taken: true means the
	// operation failed (non-200, refused, truncated, malformed).
	check func(conn int, req request, status int, body []byte) bool
}

func newLoadgen(url string, conns int, src *source, check func(int, request, int, []byte) bool) *loadgen {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &loadgen{
		url: url, conns: conns, src: src, check: check,
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

var paths = [...]string{opSearch: "/v1/search", opInsert: "/v1/insert"}

// do sends one request and reads the whole reply into buf. status 0
// means a transport error or timeout.
func (lg *loadgen) do(req request, buf *bytes.Buffer) int {
	resp, err := lg.client.Post(lg.url+paths[req.kind], "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// closed runs the closed loop for dur: each connection sends its next
// request when the last reply arrives.
func (lg *loadgen) closed(dur time.Duration) []sample {
	return lg.run(dur, func(conn, i int) time.Duration { return -1 })
}

// open runs the open loop for dur at rate requests/s over all
// connections: request i of connection c is due at dueOffset and is sent
// then, or as soon as the connection is free after that.
func (lg *loadgen) open(dur time.Duration, rate float64) []sample {
	return lg.run(dur, func(conn, i int) time.Duration { return dueOffset(rate, lg.conns, conn, i) })
}

// dueOffset staggers the connections evenly inside one inter-arrival gap.
func dueOffset(rate float64, conns, conn, i int) time.Duration {
	return time.Duration(float64(i*conns+conn) / rate * float64(time.Second))
}

func (lg *loadgen) run(dur time.Duration, due func(conn, i int) time.Duration) []sample {
	per := make([][]sample, lg.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, 1<<14)
			for i := 0; ; i++ {
				at := due(c, i)
				now := time.Since(start)
				if at < 0 { // closed loop: due now
					at = now
				}
				if at >= dur {
					break
				}
				if at > now {
					preciseSleep(at - now)
					now = time.Since(start)
				}
				req := lg.src.next(c)
				status := lg.do(req, &buf)
				s := sample{kind: req.kind, at: at, lat: time.Since(start) - at, late: now - at}
				s.fail = lg.check(c, req, status, buf.Bytes())
				out = append(out, s)
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep is
// not used for the open-loop schedule: when the process is otherwise idle
// the Go runtime parks in epoll_wait, whose timeout is whole milliseconds,
// so a 0.5 ms sleep returns after 0.6-1.1 ms depending on what else the
// runtime is doing — more than the request it delays, and charged to it.
// nanosleep overshoots by the kernel's 50 us timer slack.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// phaseStats is what one timed phase reports for one operation kind.
// Rates and percentiles are medians over phaseWindows equal windows;
// p999 and the counts cover the whole phase.
type phaseStats struct {
	attempted, failed int
	ok                int // successful operations of the kind
	qps               float64
	p50, p99, p999    float64 // ms
	perWindow         int     // median successful operations per window
}

func summarize(samples []sample, kind opKind, dur time.Duration) phaseStats {
	var st phaseStats
	window := dur / phaseWindows
	lats := make([][]float64, phaseWindows)
	var all []float64
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		st.attempted++
		if s.fail {
			st.failed++
			continue
		}
		st.ok++
		w := int(s.at / window)
		if w >= phaseWindows {
			w = phaseWindows - 1
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[w] = append(lats[w], ms)
		all = append(all, ms)
	}
	var qps, p50, p99, counts []float64
	for _, l := range lats {
		sort.Float64s(l)
		counts = append(counts, float64(len(l)))
		qps = append(qps, float64(len(l))/window.Seconds())
		if len(l) > 0 {
			p50 = append(p50, percentile(l, 50))
			p99 = append(p99, percentile(l, 99))
		}
	}
	sort.Float64s(all)
	st.qps, st.p50, st.p99 = median(qps), median(p50), median(p99)
	st.p999 = percentile(all, 99.9)
	st.perWindow = int(median(counts))
	return st
}
