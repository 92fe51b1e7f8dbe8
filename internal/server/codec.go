package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// Request decoding. Every body is read whole (size-capped by the
// MaxBytesReader ServeHTTP installed) into a pooled buffer, so anything
// after the JSON value is seen and rejected. The two vector-carrying
// bodies — by far the largest and the only ones on the search path — are
// then scanned by parseVectorBody without reflection; every other body,
// and every vector body that scan declines, goes through encoding/json
// with unknown fields disallowed, which therefore stays the definition of
// what the API accepts.

// bodyPool holds request-body buffers. A buffer is dead once its request
// is decoded: decoded values never alias it.
var bodyPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBody keeps one oversized request from pinning its buffer in
// the pool.
const maxPooledBody = 1 << 20

// decodeRequest reads r's body and decodes it into dst, which a
// vector-carrying endpoint passes as *SearchRequest or *InsertRequest.
// dim sizes the decoded vector. On failure it returns the HTTP status to
// answer with (400, or 413 for a body over the size cap) and the error.
func decodeRequest(r *http.Request, dim int, dst interface{}) (int, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if r.Body != nil {
		if _, err := buf.ReadFrom(r.Body); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
			}
			return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
		}
	}
	if err := decodeBytes(buf.Bytes(), dim, dst); err != nil {
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return 0, nil
}

// decodeBytes decodes one complete request body into dst.
func decodeBytes(b []byte, dim int, dst interface{}) error {
	switch req := dst.(type) {
	case *SearchRequest:
		if p, ok := parseVectorBody(b, dim, true); ok {
			*req = p
			return nil
		}
	case *InsertRequest:
		if p, ok := parseVectorBody(b, dim, false); ok {
			req.Vector = p.Vector
			return nil
		}
	}
	return decodeStrict(b, dst)
}

// decodeStrict is encoding/json with unknown fields disallowed and
// nothing but whitespace allowed after the value.
func decodeStrict(b []byte, dst interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if rest := b[dec.InputOffset():]; skipSpace(rest, 0) != len(rest) {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// parseVectorBody scans b as the canonical spelling of a vector body,
//
//	{"vector":[n,…],"k":n,"ef":n}
//
// — members in any order, each at most once, JSON whitespace anywhere
// between tokens, k and ef only when withKEF — in one pass, converting
// each element with the same strconv call encoding/json makes, so an
// accepted body decodes to exactly what decodeStrict would produce. It
// declines (ok false) everything else: other or escaped or differently
// cased keys, null, repeated members, non-numbers, numbers out of range,
// malformed JSON, trailing data. decodeStrict then decides, and words the
// error. The vector is freshly allocated (capacity dim), never shared.
func parseVectorBody(b []byte, dim int, withKEF bool) (req SearchRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	for {
		var intDst **int
		switch {
		case req.Vector == nil && bytes.HasPrefix(b[i:], []byte(`"vector"`)):
			i += len(`"vector"`)
		case withKEF && req.K == nil && bytes.HasPrefix(b[i:], []byte(`"k"`)):
			i += len(`"k"`)
			intDst = &req.K
		case withKEF && req.EF == nil && bytes.HasPrefix(b[i:], []byte(`"ef"`)):
			i += len(`"ef"`)
			intDst = &req.EF
		default:
			return req, false
		}
		i = skipSpace(b, i)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		if intDst != nil {
			end, isInt := scanNumber(b, i)
			if !isInt {
				return req, false
			}
			n, err := strconv.ParseInt(string(b[i:end]), 10, strconv.IntSize)
			if err != nil {
				return req, false
			}
			*intDst = IntPtr(int(n))
			i = end
		} else if req.Vector, i = parseFloats(b, i, dim); req.Vector == nil {
			return req, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// parseFloats scans the JSON array of numbers starting at b[i] into a
// new non-nil slice and returns it with the offset just past the closing
// bracket; nil means b[i:] is not such an array.
func parseFloats(b []byte, i, dim int) ([]float32, int) {
	if i == len(b) || b[i] != '[' {
		return nil, i
	}
	v := make([]float32, 0, dim)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return v, i + 1
	}
	for {
		end, _ := scanNumber(b, i)
		if end < 0 {
			return nil, i
		}
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil { // out of float32 range, as encoding/json judges it
			return nil, i
		}
		v = append(v, float32(f))
		i = skipSpace(b, end)
		if i == len(b) {
			return nil, i
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return v, i + 1
		default:
			return nil, i
		}
	}
}

// scanNumber returns the offset just past the JSON number literal that
// starts at b[i] (-1 when there is none) and whether it is a plain
// integer: no fraction, no exponent.
func scanNumber(b []byte, i int) (end int, isInt bool) {
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1, false
		}
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1, false
		}
		isInt = false
	}
	return i, isInt
}

// skipSpace returns the offset of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}
