package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// SlowQuery is one search that crossed the slow threshold, with the
// fields an operator needs to explain it: how much work the search did
// (NDC, hops), whether overload machinery touched it (efUsed vs ef,
// clamped, truncated), and how long it took.
type SlowQuery struct {
	ID     uint64 // server-assigned monotone search sequence number
	K      int
	EF     int // requested (or defaulted) search-list size
	EFUsed int // effective ef actually searched, after any clamping
	NDC    int64
	// ADC counts compressed-domain score evaluations when the search ran
	// the fused PQ path (0 on the full-precision path): a slow line with
	// a large adc= and a small ndc= spent its time navigating codes, not
	// reranking.
	ADC       int64
	Hops      int
	Truncated bool
	Clamped   bool
	// ClampedBy names the policy that shaped the query's ef —
	// "admission" (pressure-driven degradation), "budget" (scatter cost
	// capped to fit the admission capacity), or "none" — so slow queries
	// can be attributed to policy decisions, not just observed.
	ClampedBy string
	// Repair is the repair controller's aggregate mode while the query
	// ran ("steady" | "backoff", or "none" without a controller), so a
	// slow line can be read against what repair was doing.
	Repair string
	// Reshard is the live reshard's phase while the query ran
	// ("streaming" | "tailing" | "cutover", or "none") — a slow line
	// during cutover is contending with the drain barrier, one during
	// streaming with child bootstrap I/O.
	Reshard  string
	Duration time.Duration
}

// Clamp policy names for SlowQuery.ClampedBy.
const (
	ClampNone      = "none"
	ClampAdmission = "admission"
	ClampBudget    = "budget"
)

// SlowQueryLog emits a structured logfmt line for every search at or over
// Threshold. A nil log, a zero threshold, or a nil Logf never emits —
// callers can observe unconditionally.
//
// Line format (one line, stable key order, parseable as logfmt):
//
//	slow-query id=42 k=10 ef=100 efUsed=80 ef_clamped_by=admission repair=steady reshard=none ndc=1234 adc=5678 hops=57 truncated=false clamped=true durMs=12.345
type SlowQueryLog struct {
	// Threshold gates emission: only queries with Duration >= Threshold
	// are logged. <= 0 disables the log.
	Threshold time.Duration
	// Logf receives the formatted line (log.Printf-shaped).
	Logf func(format string, args ...interface{})

	seq atomic.Uint64
}

// slowQueryKeys are the fields Observe writes, in its order.
var slowQueryKeys = []string{"id", "k", "ef", "efUsed", "ef_clamped_by", "repair", "reshard",
	"ndc", "adc", "hops", "truncated", "clamped", "durMs"}

// ParseSlowQuery parses one slow-query logfmt line (as emitted by
// Observe, with or without a leading log prefix) back into a SlowQuery.
// It accepts exactly what Observe writes: a missing, repeated or unknown
// key is an error — a typo'd dashboard query should fail loudly, not
// read zeros.
func ParseSlowQuery(line string) (SlowQuery, error) {
	i := strings.Index(line, "slow-query ")
	if i < 0 {
		return SlowQuery{}, fmt.Errorf("obs: not a slow-query line: %q", line)
	}
	var q SlowQuery
	seen := make(map[string]bool, len(slowQueryKeys))
	for _, field := range strings.Fields(line[i+len("slow-query "):]) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return SlowQuery{}, fmt.Errorf("obs: malformed field %q", field)
		}
		if seen[key] {
			return SlowQuery{}, fmt.Errorf("obs: repeated field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "id":
			q.ID, err = strconv.ParseUint(val, 10, 64)
		case "k":
			q.K, err = strconv.Atoi(val)
		case "ef":
			q.EF, err = strconv.Atoi(val)
		case "efUsed":
			q.EFUsed, err = strconv.Atoi(val)
		case "ef_clamped_by":
			q.ClampedBy = val
		case "repair":
			q.Repair = val
		case "reshard":
			q.Reshard = val
		case "ndc":
			q.NDC, err = strconv.ParseInt(val, 10, 64)
		case "adc":
			q.ADC, err = strconv.ParseInt(val, 10, 64)
		case "hops":
			q.Hops, err = strconv.Atoi(val)
		case "truncated":
			q.Truncated, err = strconv.ParseBool(val)
		case "clamped":
			q.Clamped, err = strconv.ParseBool(val)
		case "durMs":
			var ms float64
			ms, err = strconv.ParseFloat(val, 64)
			q.Duration = time.Duration(ms * float64(time.Millisecond))
		default:
			return SlowQuery{}, fmt.Errorf("obs: unknown field %q", key)
		}
		if err != nil {
			return SlowQuery{}, fmt.Errorf("obs: field %q: %v", field, err)
		}
	}
	for _, key := range slowQueryKeys {
		if !seen[key] {
			return SlowQuery{}, fmt.Errorf("obs: missing field %q", key)
		}
	}
	return q, nil
}

// NextID returns the next search sequence number — the id the serving
// layer stamps on each search so a slow-query line can be correlated with
// client-side traces.
func (l *SlowQueryLog) NextID() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Add(1)
}

// Observe logs q when it crosses the threshold and reports whether it
// did. Safe on the hot path: the fast path is two comparisons.
func (l *SlowQueryLog) Observe(q SlowQuery) bool {
	if l == nil || l.Threshold <= 0 || q.Duration < l.Threshold {
		return false
	}
	if l.Logf != nil {
		by := q.ClampedBy
		if by == "" {
			by = ClampNone
		}
		repair := q.Repair
		if repair == "" {
			repair = "none"
		}
		reshard := q.Reshard
		if reshard == "" {
			reshard = "none"
		}
		l.Logf("slow-query id=%d k=%d ef=%d efUsed=%d ef_clamped_by=%s repair=%s reshard=%s ndc=%d adc=%d hops=%d truncated=%t clamped=%t durMs=%.3f",
			q.ID, q.K, q.EF, q.EFUsed, by, repair, reshard, q.NDC, q.ADC, q.Hops, q.Truncated, q.Clamped,
			float64(q.Duration)/float64(time.Millisecond))
	}
	return true
}
