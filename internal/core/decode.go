package core

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/gamma-suite/gamma/internal/tracert"
)

// decodeDataset decodes raw in one pass, specialized to the Dataset
// schema. It is exact-or-defer: it returns ok only when the result equals
// what json.Unmarshal would produce for the same bytes, and otherwise
// gives up so the caller can hand the input to encoding/json, which stays
// the one definition of what a dataset is and of its error messages.
//
// Anything outside the form SaveDataset writes is deferred: unknown,
// differently-cased or escaped keys, duplicate keys (encoding/json merges
// them), null, invalid UTF-8 and lone surrogates (encoding/json replaces
// them), numbers that do not fit their field, and trailing bytes. So are
// tls_scans and pings, which only the optional TLS and ping probes
// record. Any whitespace and any key order are accepted.
func decodeDataset(raw []byte) (*Dataset, bool) {
	d := decoder{buf: raw, strs: make(map[string]string, 1024)}
	ds := new(Dataset)
	d.dataset(ds)
	d.ws()
	if d.bad || d.pos != len(d.buf) {
		return nil, false
	}
	return ds, true
}

// slabChunk is how many elements a slab allocates at once.
const slabChunk = 2048

// decoder is the state of one decodeDataset call. Nothing outlives it but
// the Dataset it builds.
type decoder struct {
	buf []byte
	pos int
	bad bool

	// strs interns repeated values (hop addresses, domains, request types
	// and initiators): a dataset repeats a few thousand of them across
	// tens of thousands of records.
	strs map[string]string
	// esc holds a string with escapes while it is being unescaped.
	esc []byte

	// The element stacks of array, one per element type.
	pageStack []PageResult
	reqStack  []RequestRecord
	dnsStack  []DNSRecord
	trStack   []tracert.Normalized
	hopStack  []tracert.NormHop
	rttStack  []float64
	strStack  []string

	// The two most numerous kinds of array are carved from shared slabs.
	hopSlab slab[tracert.NormHop]
	rttSlab slab[float64]
}

// slab hands out exactly-sized slices carved from shared chunks, so that
// thousands of short arrays cost a handful of allocations. Each slice is
// capped at its length, so appending to one never writes into another.
type slab[T any] struct{ free []T }

func (s *slab[T]) copyOf(src []T) []T {
	n := len(src)
	if n == 0 {
		return []T{}
	}
	if n > len(s.free) {
		s.free = make([]T, max(n, slabChunk))
	}
	out := s.free[:n:n]
	copy(out, src)
	s.free = s.free[n:]
	return out
}

func (d *decoder) fail() {
	d.bad = true
	d.pos = len(d.buf)
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) ws() byte {
	b, i := d.buf, d.pos
	for i < len(b) {
		switch c := b[i]; {
		case c == ' ' && i+8 <= len(b):
			// Indentation comes in long runs of spaces: step over them
			// eight bytes at a time, landing on the first non-space.
			if x := binary.LittleEndian.Uint64(b[i:]) ^ eightSpaces; x != 0 {
				i += bits.TrailingZeros64(x) / 8
			} else {
				i += 8
			}
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
			i++
		default:
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

const eightSpaces = 0x2020202020202020

// expect consumes the byte c after optional whitespace.
func (d *decoder) expect(c byte) {
	if d.ws() != c {
		d.fail()
		return
	}
	d.pos++
}

// next advances to the next element of the array or object whose opening
// bracket has been consumed, given how many elements (*n) came before.
// It returns false after consuming the closing byte, or on failure.
func (d *decoder) next(n *int, closing byte) bool {
	c := d.ws()
	switch {
	case d.bad:
		return false
	case c == closing:
		d.pos++
		return false
	case *n > 0:
		d.expect(',')
	}
	*n++
	return !d.bad
}

// key reads the next object key and its colon. Keys with escapes or
// control bytes are deferred; so is any key no field matches exactly.
func (d *decoder) key() []byte {
	d.expect('"')
	start := d.pos
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c == '"' {
			k := d.buf[start:d.pos]
			d.pos++
			d.expect(':')
			return k
		}
		if c == '\\' || c < 0x20 {
			break
		}
		d.pos++
	}
	d.fail()
	return nil
}

// once records the field bit in *seen and fails on a duplicate key.
func (d *decoder) once(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		d.fail()
	}
	*seen |= bit
}

// plain marks the bytes a JSON string may hold verbatim without a further
// check: printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a JSON string and returns its contents, unescaped. The bytes
// alias the input or d.esc, so they are valid until the next call.
func (d *decoder) str() []byte {
	d.expect('"')
	b := d.buf
	start, i := d.pos, d.pos
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			d.pos = i + 1
			return b[start:i]
		case c == '\\':
			d.esc = append(d.esc[:0], b[start:i]...)
			return d.unescape(i)
		case c < 0x20:
			d.fail()
			return nil
		default:
			n := validRune(b[i:])
			if n == 0 {
				d.fail()
				return nil
			}
			i += n
		}
	}
	d.fail()
	return nil
}

// validRune returns the length of the valid UTF-8 sequence at the start
// of b, or 0 if it is invalid.
func validRune(b []byte) int {
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 {
		return 0
	}
	return n
}

// unescape finishes a string from b[i], a backslash, appending to d.esc.
func (d *decoder) unescape(i int) []byte {
	b := d.buf
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			d.esc = append(d.esc, c)
			i++
		case c == '"':
			d.pos = i + 1
			return d.esc
		case c == '\\':
			if i+1 >= len(b) {
				d.fail()
				return nil
			}
			i += 2
			switch e := b[i-1]; e {
			case '"', '\\', '/':
				d.esc = append(d.esc, e)
			case 'b':
				d.esc = append(d.esc, '\b')
			case 'f':
				d.esc = append(d.esc, '\f')
			case 'n':
				d.esc = append(d.esc, '\n')
			case 'r':
				d.esc = append(d.esc, '\r')
			case 't':
				d.esc = append(d.esc, '\t')
			case 'u':
				r := hex4(b[i:])
				i += 4
				if hi := r; utf16.IsSurrogate(hi) {
					// Only a well-formed pair is exact; encoding/json
					// turns a lone half into U+FFFD.
					r = -1
					if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
						if pair := utf16.DecodeRune(hi, hex4(b[i+2:])); pair != utf8.RuneError {
							r = pair
						}
						i += 6
					}
				}
				if r < 0 {
					d.fail()
					return nil
				}
				d.esc = utf8.AppendRune(d.esc, r)
			default:
				d.fail()
				return nil
			}
		case c < 0x20:
			d.fail()
			return nil
		default:
			n := validRune(b[i:])
			if n == 0 {
				d.fail()
				return nil
			}
			d.esc = append(d.esc, b[i:i+n]...)
			i += n
		}
	}
	d.fail()
	return nil
}

// hex4 parses the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// text reads a JSON string as a new Go string.
func (d *decoder) text() string { return string(d.str()) }

// intern reads a JSON string, sharing one copy per distinct value.
func (d *decoder) intern() string {
	b := d.str()
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// number returns the literal of the next JSON number, checked against
// the JSON grammar.
func (d *decoder) number() []byte {
	d.ws()
	b := d.buf
	start, i := d.pos, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			d.fail()
			return nil
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.fail()
			return nil
		}
		i = digits(b, i)
	}
	d.pos = i
	return b[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// intVal reads a JSON number into an int, as encoding/json does: with
// strconv on the literal, so a fraction, exponent or overflow defers.
func (d *decoder) intVal() int {
	lit := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.Atoi(string(lit))
	if err != nil {
		d.fail()
	}
	return v
}

// floatVal reads a JSON number into a float64, as encoding/json does.
func (d *decoder) floatVal() float64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail()
	}
	return v
}

// boolVal reads a JSON true or false.
func (d *decoder) boolVal() bool {
	d.ws()
	rest := d.buf[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false
	}
	d.fail()
	return false
}

func (d *decoder) dataset(ds *Dataset) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "schema_version":
			d.once(&seen, 1<<0)
			ds.SchemaVersion = d.intVal()
		case "volunteer_id":
			d.once(&seen, 1<<1)
			ds.VolunteerID = d.text()
		case "country":
			d.once(&seen, 1<<2)
			ds.Country = d.text()
		case "city":
			d.once(&seen, 1<<3)
			ds.City = d.text()
		case "volunteer_ip":
			d.once(&seen, 1<<4)
			ds.VolunteerIP = d.text()
		case "anonymized":
			d.once(&seen, 1<<5)
			ds.Anonymized = d.boolVal()
		case "started_at":
			d.once(&seen, 1<<6)
			// encoding/json hands time.Time the raw quoted literal.
			d.ws()
			start := d.pos
			d.str()
			if d.bad || ds.StartedAt.UnmarshalJSON(d.buf[start:d.pos]) != nil {
				d.fail()
			}
		case "pages":
			d.once(&seen, 1<<7)
			ds.Pages = array(d, &d.pageStack, nil, d.page)
		default:
			d.fail()
		}
	}
}

// array decodes a JSON array, each element by elem. The elements are
// gathered on stack, then copied out into one exactly-sized slice, carved
// from s when it is not nil. Arrays of one type never nest, so each type
// needs one stack.
func array[T any](d *decoder, stack *[]T, s *slab[T], elem func(*T)) []T {
	base := len(*stack)
	d.expect('[')
	for n := 0; d.next(&n, ']'); {
		var zero T
		*stack = append(*stack, zero)
		elem(&(*stack)[len(*stack)-1])
	}
	var out []T
	if s != nil {
		out = s.copyOf((*stack)[base:])
	} else {
		out = append([]T{}, (*stack)[base:]...)
	}
	*stack = (*stack)[:base]
	return out
}

func (d *decoder) page(p *PageResult) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "target":
			d.once(&seen, 1<<0)
			d.target(&p.Target)
		case "opted_out":
			d.once(&seen, 1<<1)
			p.OptedOut = d.boolVal()
		case "load":
			d.once(&seen, 1<<2)
			d.load(&p.Load)
		case "dns":
			d.once(&seen, 1<<3)
			p.DNS = array(d, &d.dnsStack, nil, d.dnsRecord)
		case "traceroutes":
			d.once(&seen, 1<<4)
			p.Traceroutes = array(d, &d.trStack, nil, d.traceroute)
		default:
			d.fail()
		}
	}
}

func (d *decoder) target(t *Target) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "domain":
			d.once(&seen, 1<<0)
			t.Domain = d.intern()
		case "kind":
			d.once(&seen, 1<<1)
			t.Kind = TargetKind(d.intern())
		default:
			d.fail()
		}
	}
}

func (d *decoder) load(l *PageRecord) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "site":
			d.once(&seen, 1<<0)
			l.Site = d.intern()
		case "url":
			d.once(&seen, 1<<1)
			l.URL = d.intern()
		case "ok":
			d.once(&seen, 1<<2)
			l.OK = d.boolVal()
		case "fail_reason":
			d.once(&seen, 1<<3)
			l.FailReason = d.intern()
		case "duration_ms":
			d.once(&seen, 1<<4)
			l.DurationMs = d.floatVal()
		case "requests":
			d.once(&seen, 1<<5)
			l.Requests = array(d, &d.reqStack, nil, d.request)
		default:
			d.fail()
		}
	}
}

func (d *decoder) request(r *RequestRecord) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "url":
			d.once(&seen, 1<<0)
			r.URL = d.text()
		case "domain":
			d.once(&seen, 1<<1)
			r.Domain = d.intern()
		case "type":
			d.once(&seen, 1<<2)
			r.Type = d.intern()
		case "initiator":
			d.once(&seen, 1<<3)
			r.Initiator = d.intern()
		case "blocked":
			d.once(&seen, 1<<4)
			r.Blocked = d.boolVal()
		case "third_party":
			d.once(&seen, 1<<5)
			r.ThirdParty = d.boolVal()
		case "set_cookies":
			d.once(&seen, 1<<6)
			r.SetCookies = d.strings()
		default:
			d.fail()
		}
	}
}

func (d *decoder) dnsRecord(r *DNSRecord) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "domain":
			d.once(&seen, 1<<0)
			r.Domain = d.intern()
		case "addr":
			d.once(&seen, 1<<1)
			r.Addr = d.intern()
		case "rdns":
			d.once(&seen, 1<<2)
			r.RDNS = d.intern()
		case "cname_chain":
			d.once(&seen, 1<<3)
			r.CNAMEChain = d.strings()
		case "err":
			d.once(&seen, 1<<4)
			r.Err = d.intern()
		default:
			d.fail()
		}
	}
}

func (d *decoder) traceroute(tr *tracert.Normalized) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "target":
			d.once(&seen, 1<<0)
			tr.Target = d.intern()
		case "reached":
			d.once(&seen, 1<<1)
			tr.Reached = d.boolVal()
		case "hops":
			d.once(&seen, 1<<2)
			tr.Hops = array(d, &d.hopStack, &d.hopSlab, d.hop)
		default:
			d.fail()
		}
	}
}

func (d *decoder) hop(h *tracert.NormHop) {
	var seen uint32
	d.expect('{')
	for n := 0; d.next(&n, '}'); {
		switch string(d.key()) {
		case "hop":
			d.once(&seen, 1<<0)
			h.Hop = d.intVal()
		case "addr":
			d.once(&seen, 1<<1)
			h.Addr = d.intern()
		case "rtt_ms":
			d.once(&seen, 1<<2)
			h.RTTMs = array(d, &d.rttStack, &d.rttSlab, func(f *float64) { *f = d.floatVal() })
		default:
			d.fail()
		}
	}
}

// strings reads an array of strings, interning each.
func (d *decoder) strings() []string {
	return array(d, &d.strStack, nil, func(s *string) { *s = d.intern() })
}
