package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestParseSlowQueryRoundTrip renders SlowQuery values through Observe
// and parses the lines back: every field must survive, and the
// attribution fields Observe defaults must come back as "none".
func TestParseSlowQueryRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		q    SlowQuery
	}{
		{"none", SlowQuery{ID: 1, K: 10, EF: 100, EFUsed: 100, NDC: 500, Hops: 12, Duration: 15 * time.Millisecond}},
		{"budget_clamped", SlowQuery{ID: 3, K: 5, EF: 100, EFUsed: 40, NDC: 321, Hops: 9, Clamped: true, ClampedBy: ClampBudget, Duration: 20 * time.Millisecond}},
		{"eager_truncated", SlowQuery{ID: 4, K: 10, EF: 64, EFUsed: 64, Repair: "eager", Truncated: true, Duration: 11 * time.Millisecond}},
		{"resharding", SlowQuery{ID: 5, K: 10, EF: 100, EFUsed: 100, Reshard: "cutover", NDC: 77, Duration: 13 * time.Millisecond}},
		{"pq", SlowQuery{ID: 6, K: 10, EF: 64, EFUsed: 64, NDC: 40, ADC: 9000, Hops: 30, Duration: 12 * time.Millisecond}},
	}
	orNone := func(s string) string {
		if s == "" {
			return "none"
		}
		return s
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var line string
			l := &SlowQueryLog{Threshold: time.Millisecond, Logf: func(f string, a ...interface{}) {
				line = fmt.Sprintf(f, a...)
			}}
			if !l.Observe(tc.q) {
				t.Fatal("not observed")
			}
			got, err := ParseSlowQuery(line)
			if err != nil {
				t.Fatalf("ParseSlowQuery(%q): %v", line, err)
			}
			want := tc.q
			want.ClampedBy, want.Repair, want.Reshard = orNone(want.ClampedBy), orNone(want.Repair), orNone(want.Reshard)
			if got != want {
				t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestParseSlowQueryCompatAndErrors(t *testing.T) {
	line := "slow-query id=7 k=10 ef=100 efUsed=80 ef_clamped_by=admission repair=steady reshard=none ndc=1234 adc=0 hops=57 truncated=false clamped=true durMs=12.345"
	q, err := ParseSlowQuery(line)
	if err != nil {
		t.Fatalf("full line: %v", err)
	}
	if q.Reshard != "none" || q.Repair != "steady" || q.EFUsed != 80 {
		t.Fatalf("full line parse: %+v", q)
	}
	// A log-prefixed line still parses (Observe goes through log.Printf).
	prefixed := "2026/08/07 12:00:00 " + line
	if _, err := ParseSlowQuery(prefixed); err != nil {
		t.Fatalf("prefixed line: %v", err)
	}
	// Only what Observe writes parses: a line missing any of its fields
	// (an older line without reshard= or adc= among them) is an error,
	// and so is the removed policy= field.
	bad := []string{
		"not a slow query",
		"slow-query id=7 k",                 // malformed field
		"slow-query id=7 mystery=1",         // unknown key
		"slow-query id=x k=10",              // bad integer
		"slow-query id=7 truncated=perhaps", // bad bool
		"slow-query id=7 durMs=two",         // bad float
		line + " id=8",                      // repeated key
		strings.Replace(line, " reshard=none", " policy=none reshard=none", 1),
	}
	for _, f := range strings.Fields(line)[1:] {
		bad = append(bad, strings.Replace(line, " "+f, "", 1))
	}
	for _, b := range bad {
		if _, err := ParseSlowQuery(b); err == nil {
			t.Fatalf("ParseSlowQuery(%q) accepted", b)
		}
	}
}
