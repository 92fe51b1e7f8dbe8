package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallOnce answers at once, except that its n-th request sleeps.
func stallOnce(n int64, stall time.Duration) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == n {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	})
}

func testLoadgen(url string) *loadgen {
	in := &inputs{test: [][]byte{[]byte(`{}`)}}
	ok := func(int, request, int, []byte) bool { return false }
	return newLoadgen(url, 2, newSource(in, 2), ok)
}

func slowAndLate(samples []sample) (slow, late int) {
	for _, s := range samples {
		if s.lat > 50*time.Millisecond {
			slow++
		}
		if s.late > time.Millisecond {
			late++
		}
	}
	return slow, late
}

// The open loop charges a stall to every request that was due during
// it and reports that it sent them late; the closed loop, whose
// connection simply waits, sees one slow request and no lateness.
func TestStallOpenVersusClosed(t *testing.T) {
	const stall = 200 * time.Millisecond

	srv := httptest.NewServer(stallOnce(40, stall))
	lg := testLoadgen(srv.URL)
	open := lg.open(time.Second, 500)
	lg.close()
	srv.Close()
	slow, late := slowAndLate(open)
	// 250 requests/s on the stalled connection: ~37 of them fall due more
	// than 50 ms before the stall ends.
	if slow < 10 {
		t.Errorf("open loop: %d requests slower than 50 ms, want the ones due during the %s stall (>= 10)", slow, stall)
	}
	if late == 0 {
		t.Errorf("open loop: no request reported late, want client.late_ratio > 0")
	}

	srv = httptest.NewServer(stallOnce(40, stall))
	lg = testLoadgen(srv.URL)
	closed := lg.closed(time.Second)
	lg.close()
	srv.Close()
	slow, late = slowAndLate(closed)
	if slow != 1 {
		t.Errorf("closed loop: %d requests slower than 50 ms, want exactly the stalled one", slow)
	}
	if late != 0 {
		t.Errorf("closed loop: %d requests reported late, want 0", late)
	}
	if len(closed) < 100 {
		t.Errorf("closed loop sent only %d requests in a second", len(closed))
	}
}

// The same seed yields a byte-identical request stream — bodies, the
// per-connection schedule and the open-loop due times — and a different
// seed a different one.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	wl, _ := findWorkload("mix-2shard")
	a := streamHash(makeInputs(smokeSizes, 3, wl), 2, 5000)
	b := streamHash(makeInputs(smokeSizes, 3, wl), 2, 5000)
	c := streamHash(makeInputs(smokeSizes, 4, wl), 2, 5000)
	if a != b {
		t.Errorf("seed 3 twice: %s != %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 give the same stream %s", a)
	}
	inserts := 0
	src := newSource(makeInputs(smokeSizes, 3, wl), 2)
	for i := 0; i < 5000; i++ {
		if src.next(0).kind == opInsert {
			inserts++
		}
	}
	if inserts < 400 || inserts > 600 {
		t.Errorf("%d inserts in 5000 operations, want about one in ten", inserts)
	}
}

func TestSummarizeUsesWindowMedians(t *testing.T) {
	// Five 1 s windows of 100 fast requests; one window also holds a 1 s
	// outlier burst that must not move the reported p99.
	var samples []sample
	for w := 0; w < phaseWindows; w++ {
		for i := 0; i < 100; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{kind: opSearch, at: at, lat: time.Millisecond})
		}
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, sample{kind: opSearch, at: 2*time.Second + 500*time.Millisecond, lat: time.Second})
	}
	samples = append(samples, sample{kind: opSearch, at: time.Second, fail: true})
	st := summarize(samples, opSearch, phaseWindows*time.Second)
	if st.attempted != 511 || st.failed != 1 || st.ok != 510 {
		t.Errorf("attempted/failed/ok = %d/%d/%d, want 511/1/510", st.attempted, st.failed, st.ok)
	}
	if st.qps != 100 || st.p99 != 1 {
		t.Errorf("qps %.1f p99 %.1f ms, want the window medians 100 and 1", st.qps, st.p99)
	}
	if st.p999 != 1000 {
		t.Errorf("p999 %.1f ms, want the whole-phase tail 1000", st.p999)
	}
}
