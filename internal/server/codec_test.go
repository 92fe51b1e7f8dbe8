package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// canonicalSeeds are spellings the vector-body scanner must decode by
// itself (TestCanonicalBodiesBypassReflection).
var canonicalSeeds = []string{
	`{"vector":[1,2,3],"k":10,"ef":64}`,
	`{"vector":[1,2,3]}`,
	`{"ef":7,"vector":[0.25],"k":3}`,
	" {\t\"vector\" : [ 1 ,\r\n 2.5e-3 ] , \"k\" : 1 } \n",
	`{}`,
	`{"vector":[]}`,
	`{"vector":[-0,0,-0.0,1e0,1E+2,1e-2,123456789.123456789]}`,
}

// codecSeeds are the shapes the scanner must either decode exactly like
// encoding/json or decline: the canonical grammar, its numeric edges, and
// everything that is the reflective decoder's business.
var codecSeeds = append(slices.Clone(canonicalSeeds),
	`{"vector":[1e-45,1e-46,4.9e-324,1.17549435e-38,3.4028235e38]}`, // subnormals, underflow, max
	`{"vector":[1e39]}`, // float32 overflow
	`{"vector":[3.4028236e38,0.1,16777217,0.30000001192092896]}`,
	`{"vector":[1],"k":-0,"ef":9223372036854775807}`,
	`{"vector":[1],"k":9223372036854775808}`,
	`{"vector":[1],"k":1.0}`,
	`{"vector":[1],"k":1e2}`,
	`{"vector":[1],"k":"3"}`,
	`{"vector":[1],"bogus":true}`,
	`{"Vector":[1],"K":2}`,
	`{"vector":[1]}`,
	`{"vector":null,"k":null}`,
	`null`,
	`[1,2]`,
	`{"vector":[[1],2]}`,
	`{"vector":[1,"2"]}`,
	`{"vector":[1,]}`,
	`{"vector":[01]}`,
	`{"vector":[.5]}`,
	`{"vector":[1.]}`,
	`{"vector":[+1]}`,
	`{"vector":[-]}`,
	`{"vector":[1e]}`,
	`{"vector":[NaN]}`,
	`{"vector":[0x10]}`,
	`{"vector":[1_0]}`,
	`{"vector":[1],"vector":[2,3]}`,
	`{"vector":[1],"k":1,"k":2}`,
	`{"vector":[1,2`,
	`{"vector":[1,2]`,
	`{"vector"`,
	`{"vector":[1],}`,
	``,
	`   `,
	`{"vector":[1]}garbage`,
	`{"vector":[1]}{"vector":[2]}`,
	`{"vector":[1]} {}`,
	"\ufeff"+`{"vector":[1]}`,
)

func sameRequest(t *testing.T, body []byte, got, want SearchRequest) {
	t.Helper()
	if (got.Vector == nil) != (want.Vector == nil) || len(got.Vector) != len(want.Vector) {
		t.Fatalf("body %q: vector %v, encoding/json %v", body, got.Vector, want.Vector)
	}
	for i := range got.Vector {
		if math.Float32bits(got.Vector[i]) != math.Float32bits(want.Vector[i]) {
			t.Fatalf("body %q: vector[%d] = %x, encoding/json %x", body, i,
				math.Float32bits(got.Vector[i]), math.Float32bits(want.Vector[i]))
		}
	}
	for _, p := range [][2]*int{{got.K, want.K}, {got.EF, want.EF}} {
		if (p[0] == nil) != (p[1] == nil) || (p[0] != nil && *p[0] != *p[1]) {
			t.Fatalf("body %q: k/ef disagree with encoding/json", body)
		}
	}
}

// FuzzSearchDecode: for arbitrary bytes, the search decoder and
// encoding/json (unknown fields disallowed, nothing after the value)
// agree on accept/reject, and on acceptance on every field bit for bit.
func FuzzSearchDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want SearchRequest
		gotErr, wantErr := decodeBytes(body, 3, &got), decodeStrict(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil {
			sameRequest(t, body, got, want)
		}
	})
}

// FuzzInsertDecode is FuzzSearchDecode for the insert body, where k and
// ef are unknown fields.
func FuzzInsertDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want InsertRequest
		gotErr, wantErr := decodeBytes(body, 3, &got), decodeStrict(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil {
			sameRequest(t, body, SearchRequest{Vector: got.Vector}, SearchRequest{Vector: want.Vector})
		}
	})
}

// A canonically spelled body — what json.Marshal of the request types
// and every client in this repository produce — is decoded by the scanner
// alone, never by the reflective decoder.
func TestCanonicalBodiesBypassReflection(t *testing.T) {
	marshalled, err := json.Marshal(SearchRequest{Vector: []float32{0.1, -2.5e-7, 3e10}, K: IntPtr(10), EF: IntPtr(64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range append(slices.Clone(canonicalSeeds), string(marshalled)) {
		if _, ok := parseVectorBody([]byte(body), 3, true); !ok {
			t.Errorf("search body %q fell through to encoding/json", body)
		}
	}
	if _, ok := parseVectorBody([]byte(`{"vector":[1,2,3]}`), 3, false); !ok {
		t.Error("insert body fell through to encoding/json")
	}
	if _, ok := parseVectorBody([]byte(`{"vector":[1],"k":1}`), 3, false); ok {
		t.Error("insert body with k must be left to encoding/json to reject")
	}
}

// Anything but whitespace after the JSON value is a 400 on every
// endpoint that reads a body; it used to be silently ignored.
func TestTrailingBytesRejected(t *testing.T) {
	ts, d := newTestServer(t)
	vecJSON, err := json.Marshal(d.TestOOD.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{
		"/v1/search": `{"vector":` + string(vecJSON) + `,"k":3}`,
		"/v1/insert": `{"vector":` + string(vecJSON) + `}`,
		"/v1/delete": `{"id":1}`,
		"/v1/purge":  `{"k":10,"ef":40}`,
	}
	for path, body := range bodies {
		for _, c := range []struct {
			name, tail string
			want       int
		}{
			{"whitespace", " \r\n\t", http.StatusOK},
			{"garbage", "garbage", http.StatusBadRequest},
			{"second object", body, http.StatusBadRequest},
			{"stray brace", " }", http.StatusBadRequest},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body+c.tail))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s with %s after the body: status %d, want %d", path, c.name, resp.StatusCode, c.want)
			}
		}
	}
}

// searchAllocCeiling bounds heap allocations per /v1/search through
// ServeHTTP (decode, search, encode; httptest's own recorder and request
// excluded). The reflective decoder alone used to cost more than this.
const searchAllocCeiling = 25

func TestSearchAllocationCeiling(t *testing.T) {
	_, s, d := newTestServerFull(t)
	body, err := json.Marshal(SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(10), EF: IntPtr(20)})
	if err != nil {
		t.Fatal(err)
	}
	exchange := func(h http.Handler) {
		rec := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(rec, req)
	}
	harness := testing.AllocsPerRun(200, func() {
		exchange(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	})
	total := testing.AllocsPerRun(200, func() { exchange(s) })
	if got := total - harness; got > searchAllocCeiling {
		t.Fatalf("%.0f allocations per search (ceiling %d)", got, searchAllocCeiling)
	}
}

// Request bodies are decoded out of pooled buffers. Nothing that outlives
// the handler — the fixer's pending ring above all — may alias one.
// Concurrent traffic first (under -race, a retained alias would race with
// the next request's read into the same buffer); then a sequential run
// that fills the ring, overwriting each request's bytes and every pooled
// buffer after it. A fix batch over that ring must then add exactly the
// edges a twin fixer adds from the same queries passed in directly.
func TestPooledBodiesNeverAliasRetainedState(t *testing.T) {
	_, s, d := newTestServerFull(t)
	serve := func(v []float32) {
		body, err := json.Marshal(SearchRequest{Vector: v, K: IntPtr(5), EF: IntPtr(40)})
		if err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("search: status %d body %s", rec.Code, rec.Body)
		}
		for j := range body {
			body[j] = '7'
		}
	}
	junkPool := func() {
		var drained []*bytes.Buffer
		for i := 0; i < 16; i++ {
			buf := bodyPool.Get().(*bytes.Buffer)
			junk := buf.Bytes()[:buf.Cap()]
			for j := range junk {
				junk[j] = '9'
			}
			drained = append(drained, buf)
		}
		for _, buf := range drained {
			bodyPool.Put(buf)
		}
	}

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				serve(d.Base.Row(i))
			}
		}(w)
	}
	wg.Wait()

	// The ring holds 50: these sequential queries shed every concurrent one.
	twin := newTestFixer(d, nil)
	for i := 0; i < 50; i++ {
		serve(d.History.Row(i))
		junkPool()
		twin.Search(d.History.Row(i), 5, 40)
	}
	if got := s.Topology().Group.Pending(); got != 50 {
		t.Fatalf("%d queries pending, want the full batch of 50", got)
	}
	got, err := s.Topology().Group.Fixer(0).FixPendingChecked()
	if err != nil {
		t.Fatal(err)
	}
	want := twin.FixPending()
	got.Elapsed, want.Elapsed = 0, 0
	if want.NGFixEdges == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fix over the served ring %+v, over the same queries passed directly %+v", got, want)
	}
}
