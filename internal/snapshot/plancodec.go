package snapshot

// Plan codec: the one-pass hot path behind Encode and Decode.
//
// A plan is built once per Go type of the schema, at package init, and
// covers only the kinds the schema uses: structs (exported fields in
// declaration order), slices, []byte (std base64), pointers, map[int]*T,
// bool, int/int32/int64/uint64, float64 and string. buildPlan panics on
// any other kind, on a struct tag, on an embedded field and on a type with
// its own JSON or text (un)marshalling, so a schema change that the plans
// do not model fails every codec test instead of silently diverging from
// encoding/json.
//
// decodePlans walks the file once, in place, straight into a Snapshot,
// and records each section's byte span for the checksum check. It reports
// false on anything outside the canonical form codec.go describes; it
// never produces an error itself.
//
// encodePlans appends through the same plans and produces exactly what
// json.Marshal would, the error for a NaN or infinite float included.

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"unsafe"
)

type planKind uint8

const (
	planBool  planKind = iota
	planInt            // int and int64 kinds, 8 bytes
	planInt32          // int32 kinds (and int on a 32-bit platform)
	planUint64
	planFloat64
	planString
	planBytes // []byte: a std base64 string
	planSlice
	planPtr
	planStruct
	planMap // map[int]*T: an object keyed by decimal strings
)

// plan is the codec's description of one Go type.
type plan struct {
	kind   planKind
	typ    reflect.Type
	size   uintptr // typ.Size()
	elem   *plan   // slice element, pointee, map value (a *T plan)
	fields []planField
	// scalarElems marks a slice of numbers or bools, whose JSON array
	// holds no ',' or ']' inside an element, so its length can be
	// counted before it is decoded.
	scalarElems bool
}

// planField is one exported struct field.
type planField struct {
	quoted string // "Name", the key as it appears in the file
	enc    string // {"Name": or ,"Name":, what the encoder appends before the value
	offset uintptr
	plan   *plan
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

var metaPlan, specPlan, statePlan = sectionPlans()

func sectionPlans() (meta, spec, state *plan) {
	built := map[reflect.Type]*plan{}
	return buildPlan(reflect.TypeOf(Meta{}), built),
		buildPlan(reflect.TypeOf(Spec{}), built),
		buildPlan(reflect.TypeOf(State{}), built)
}

var codecInterfaces = []reflect.Type{
	reflect.TypeOf((*json.Marshaler)(nil)).Elem(),
	reflect.TypeOf((*json.Unmarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
}

// checkPlainType panics if encoding/json would call a method of t.
func checkPlainType(t reflect.Type) {
	for _, it := range codecInterfaces {
		if t.Implements(it) || reflect.PointerTo(t).Implements(it) {
			panic(fmt.Sprintf("snapshot: plan codec: %v implements %v", t, it))
		}
	}
}

func buildPlan(t reflect.Type, built map[reflect.Type]*plan) *plan {
	if p, ok := built[t]; ok {
		return p
	}
	checkPlainType(t)
	p := &plan{typ: t, size: t.Size()}
	built[t] = p
	unsupported := func() {
		panic(fmt.Sprintf("snapshot: plan codec: unsupported type %v", t))
	}
	switch t.Kind() {
	case reflect.Bool:
		p.kind = planBool
	case reflect.Int, reflect.Int64, reflect.Int32:
		p.kind = planInt
		if t.Size() == 4 {
			p.kind = planInt32
		}
	case reflect.Uint64:
		p.kind = planUint64
	case reflect.Float64:
		p.kind = planFloat64
	case reflect.String:
		p.kind = planString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			checkPlainType(t.Elem())
			p.kind = planBytes
			break
		}
		p.kind = planSlice
		p.elem = buildPlan(t.Elem(), built)
		switch p.elem.kind {
		case planBool, planInt, planInt32, planUint64, planFloat64:
			p.scalarElems = true
		}
	case reflect.Pointer:
		p.kind = planPtr
		p.elem = buildPlan(t.Elem(), built)
	case reflect.Struct:
		p.kind = planStruct
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous || f.Tag != "" {
				panic(fmt.Sprintf("snapshot: plan codec: %v.%s is embedded or tagged", t, f.Name))
			}
			if !f.IsExported() {
				continue // encoding/json skips it both ways
			}
			sep := ","
			if len(p.fields) == 0 {
				sep = "{"
			}
			p.fields = append(p.fields, planField{
				quoted: `"` + f.Name + `"`,
				enc:    sep + `"` + f.Name + `":`,
				offset: f.Offset,
				plan:   buildPlan(f.Type, built),
			})
		}
	case reflect.Map:
		if t.Key().Kind() != reflect.Int || t.Elem().Kind() != reflect.Pointer {
			unsupported()
		}
		checkPlainType(t.Key())
		p.kind = planMap
		p.elem = buildPlan(t.Elem(), built)
	default:
		unsupported()
	}
	return p
}

// Encoding.

// encodePlans serializes s to the envelope around json.Marshal of each
// section. Its only error is encoding/json's for a NaN or infinite float,
// met at the value json.Marshal would stop at: the sections go out in
// the same order, fields in declaration order, map entries sorted.
func encodePlans(s *Snapshot) ([]byte, error) {
	// One allocation: the sections' size bound plus the envelope, whose
	// keys, version and three hex sums take under 300 bytes.
	b := make([]byte, 0, encodedSize(metaPlan, unsafe.Pointer(&s.Meta))+
		encodedSize(specPlan, unsafe.Pointer(&s.Spec))+
		encodedSize(statePlan, unsafe.Pointer(&s.State))+300)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(s.Version), 10)
	var spans [3][2]int
	for i, sec := range [3]struct {
		name string
		pl   *plan
		p    unsafe.Pointer
	}{
		{"meta", metaPlan, unsafe.Pointer(&s.Meta)},
		{"spec", specPlan, unsafe.Pointer(&s.Spec)},
		{"state", statePlan, unsafe.Pointer(&s.State)},
	} {
		b = append(b, `,"`+sec.name+`":`...)
		spans[i][0] = len(b)
		var err error
		if b, err = appendValue(b, sec.pl, sec.p); err != nil {
			return nil, fmt.Errorf("snapshot: encoding %s: %w", sec.name, err)
		}
		spans[i][1] = len(b)
	}
	for i, key := range [3]string{`,"sums":{"meta":"`, `","spec":"`, `","state":"`} {
		b = append(b, key...)
		h := sha256.Sum256(b[spans[i][0]:spans[i][1]])
		b = hex.AppendEncode(b, h[:])
	}
	return append(b, `"}}`...), nil
}

func appendValue(b []byte, pl *plan, p unsafe.Pointer) ([]byte, error) {
	switch pl.kind {
	case planBool:
		return strconv.AppendBool(b, *(*bool)(p)), nil
	case planInt:
		return strconv.AppendInt(b, *(*int64)(p), 10), nil
	case planInt32:
		return strconv.AppendInt(b, int64(*(*int32)(p)), 10), nil
	case planUint64:
		return strconv.AppendUint(b, *(*uint64)(p), 10), nil
	case planFloat64:
		return appendFloat(b, *(*float64)(p))
	case planString:
		return appendString(b, *(*string)(p)), nil
	case planBytes:
		v := *(*[]byte)(p)
		if v == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, v)
		return append(b, '"'), nil
	case planSlice:
		h := (*sliceHeader)(p)
		if h.data == nil {
			return append(b, "null"...), nil
		}
		if h.len == 0 {
			return append(b, "[]"...), nil
		}
		// Each element is followed by a ',', and the last one's becomes
		// the ']'.
		b = append(b, '[')
		var err error
		for i := 0; i < h.len; i++ {
			if b, err = appendValue(b, pl.elem, unsafe.Add(h.data, uintptr(i)*pl.elem.size)); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		b[len(b)-1] = ']'
		return b, nil
	case planPtr:
		q := *(*unsafe.Pointer)(p)
		if q == nil {
			return append(b, "null"...), nil
		}
		return appendValue(b, pl.elem, q)
	case planStruct:
		if len(pl.fields) == 0 {
			return append(b, "{}"...), nil
		}
		var err error
		for i := range pl.fields {
			f := &pl.fields[i]
			b = append(b, f.enc...)
			if b, err = appendValue(b, f.plan, unsafe.Add(p, f.offset)); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	case planMap:
		return appendMap(b, pl, p)
	}
	panic("snapshot: plan codec: unknown plan kind")
}

// encodedSize bounds the bytes appendValue writes for the value at p, so
// Encode allocates its output once. It is exact but for floats that are
// not small integers and strings that need escaping, which count their
// longest form.
func encodedSize(pl *plan, p unsafe.Pointer) int {
	switch pl.kind {
	case planBool:
		if *(*bool)(p) {
			return len("true")
		}
		return len("false")
	case planInt:
		return intLen(*(*int64)(p))
	case planInt32:
		return intLen(int64(*(*int32)(p)))
	case planUint64:
		return uintLen(*(*uint64)(p))
	case planFloat64:
		if i, ok := smallInt(*(*float64)(p)); ok {
			return intLen(i)
		}
		return len("-0.0000012345678901234567")
	case planString:
		s := *(*string)(p)
		for i := 0; i < len(s); i++ {
			if !plainByte(s[i]) {
				return 2 + 6*len(s) // every byte as \u00XX or \ufffd
			}
		}
		return 2 + len(s)
	case planBytes:
		v := *(*[]byte)(p)
		if v == nil {
			return len("null")
		}
		return 2 + base64.StdEncoding.EncodedLen(len(v))
	case planSlice:
		h := (*sliceHeader)(p)
		if h.data == nil {
			return len("null")
		}
		n := 2 + max(h.len-1, 0) // brackets and commas
		for i := 0; i < h.len; i++ {
			n += encodedSize(pl.elem, unsafe.Add(h.data, uintptr(i)*pl.elem.size))
		}
		return n
	case planPtr:
		q := *(*unsafe.Pointer)(p)
		if q == nil {
			return len("null")
		}
		return encodedSize(pl.elem, q)
	case planStruct:
		n := len("}") // the first field's enc holds the '{'
		if len(pl.fields) == 0 {
			n = len("{}")
		}
		for i := range pl.fields {
			f := &pl.fields[i]
			n += len(f.enc) + encodedSize(f.plan, unsafe.Add(p, f.offset))
		}
		return n
	case planMap:
		m := reflect.NewAt(pl.typ, p).Elem()
		if m.IsNil() {
			return len("null")
		}
		n := 2 + m.Len()*len(`"-9223372036854775808":,`)
		for it := m.MapRange(); it.Next(); {
			q := it.Value().UnsafePointer()
			n += encodedSize(pl.elem, unsafe.Pointer(&q))
		}
		return n
	}
	panic("snapshot: plan codec: unknown plan kind")
}

// uintLen is the length of strconv.FormatUint(u, 10).
func uintLen(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// intLen is the length of strconv.FormatInt(i, 10).
func intLen(i int64) int {
	if i < 0 {
		return 1 + uintLen(-uint64(i))
	}
	return uintLen(uint64(i))
}

// appendMap writes a map[int]*T the way encoding/json does: keys as
// decimal strings, sorted as strings (so "10" sorts before "2").
func appendMap(b []byte, pl *plan, p unsafe.Pointer) ([]byte, error) {
	m := reflect.NewAt(pl.typ, p).Elem()
	if m.IsNil() {
		return append(b, "null"...), nil
	}
	type entry struct {
		key string
		val unsafe.Pointer
	}
	entries := make([]entry, 0, m.Len())
	for it := m.MapRange(); it.Next(); {
		entries = append(entries, entry{strconv.FormatInt(it.Key().Int(), 10), it.Value().UnsafePointer()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	b = append(b, '{')
	var err error
	for i := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, entries[i].key...)
		b = append(b, `":`...)
		if b, err = appendValue(b, pl.elem, unsafe.Pointer(&entries[i].val)); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: 'f' format, or 'e' with
// the exponent's leading zero dropped when |f| < 1e-6 or |f| >= 1e21. A
// NaN or an infinity gets encoding/json's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// smallInt returns f as an integer if f is integral, |f| < 1e15 and f is
// not -0. Below 2^53 adjacent floats are less than 1 apart, so the
// shortest decimal that round-trips such an f is its own integer, and
// 'f' format prints exactly the integer's digits.
func smallInt(f float64) (int64, bool) {
	if f <= -1e15 || f >= 1e15 {
		return 0, false
	}
	i := int64(f)
	if float64(i) != f || i == 0 && math.Signbit(f) { //corralvet:ok floateq exact integrality test
		return 0, false
	}
	return i, true
}

// appendString writes s quoted. A string that encoding/json would escape
// anywhere (a control byte, '"', '\\', the HTML-escaped '<', '>' and '&',
// or any non-ASCII byte) goes through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // a string never fails to marshal
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether c stands for itself inside a JSON string in
// both directions: printable ASCII other than '"', '\\' and the three
// bytes encoding/json HTML-escapes.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Decoding.

// decoder walks one file. Every method reports false as soon as the input
// leaves the canonical form; the caller then falls back to encoding/json.
type decoder struct {
	data []byte
	i    int
}

// decodePlans decodes a canonical snapshot file in one pass, or reports
// false. The file must be the envelope with its keys in the order Encode
// writes them, the right version, sections that decode canonically and
// sums that match the sections' bytes.
func decodePlans(data []byte) (*Snapshot, bool) {
	d := decoder{data: data}
	s := new(Snapshot)
	if !d.byte('{') || !d.key(`"version"`) {
		return nil, false
	}
	d.ws()
	v, ok := d.int(64)
	if !ok || v != Version {
		return nil, false
	}
	s.Version = int(v)
	var spans [3][]byte
	for i, sec := range [3]struct {
		key string
		pl  *plan
		p   unsafe.Pointer
	}{
		{`"meta"`, metaPlan, unsafe.Pointer(&s.Meta)},
		{`"spec"`, specPlan, unsafe.Pointer(&s.Spec)},
		{`"state"`, statePlan, unsafe.Pointer(&s.State)},
	} {
		if !d.byte(',') || !d.key(sec.key) {
			return nil, false
		}
		d.ws()
		start := d.i
		if !d.value(sec.pl, sec.p) {
			return nil, false
		}
		spans[i] = data[start:d.i]
	}
	if !d.byte(',') || !d.key(`"sums"`) || !d.byte('{') {
		return nil, false
	}
	for i, key := range [3]string{`"meta"`, `"spec"`, `"state"`} {
		if i > 0 && !d.byte(',') {
			return nil, false
		}
		if !d.key(key) {
			return nil, false
		}
		d.ws()
		want, ok := d.str()
		if !ok || !sumMatches(spans[i], want) {
			return nil, false
		}
	}
	if !d.byte('}') || !d.byte('}') {
		return nil, false
	}
	d.ws()
	if d.i != len(d.data) {
		return nil, false
	}
	return s, true
}

func sumMatches(section, want []byte) bool {
	h := sha256.Sum256(section)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], h[:])
	return bytes.Equal(hx[:], want)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte consumes c after optional whitespace.
func (d *decoder) byte(c byte) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key consumes an object key, given with its quotes, and the colon after
// it.
func (d *decoder) key(quoted string) bool {
	d.ws()
	if !hasPrefix(d.data[d.i:], quoted) {
		return false
	}
	d.i += len(quoted)
	return d.byte(':')
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// literal consumes lit at the cursor.
func (d *decoder) literal(lit string) bool {
	if hasPrefix(d.data[d.i:], lit) {
		d.i += len(lit)
		return true
	}
	return false
}

// str consumes a string of plain bytes (see plainByte) and returns its
// contents, which alias the input.
func (d *decoder) str() ([]byte, bool) {
	if d.i >= len(d.data) || d.data[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for j := start; j < len(d.data); j++ {
		c := d.data[j]
		if c == '"' {
			d.i = j + 1
			return d.data[start:j], true
		}
		if !plainByte(c) {
			return nil, false
		}
	}
	return nil, false
}

// number consumes a number that matches the JSON grammar and returns its
// bytes and whether it has neither a fraction nor an exponent.
func (d *decoder) number() (num []byte, integer, ok bool) {
	b, i := d.data, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return nil, false, false
	case b[i] == '0':
		i++
	case b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i++; i >= len(b) || !isDigit(b[i]) {
			return nil, false, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	num, d.i = b[d.i:i], i
	return num, integer, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// int consumes an integer the way encoding/json decodes one into a
// width-bit signed field. encoding/json parses at 64 bits and then checks
// the field's width; ParseInt at that width accepts the same numbers.
func (d *decoder) int(width int) (int64, bool) {
	num, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, width)
	return n, err == nil
}

// uint consumes an integer the way encoding/json decodes one into a
// uint64 field: strconv.ParseUint, which rejects any sign.
func (d *decoder) uint() (uint64, bool) {
	num, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	return n, err == nil
}

// float consumes a number the way encoding/json decodes one into a
// float64 field: strconv.ParseFloat(s, 64), failing on a range error.
func (d *decoder) float() (float64, bool) {
	num, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// value decodes one JSON value of type pl into the zeroed memory at p.
func (d *decoder) value(pl *plan, p unsafe.Pointer) bool {
	d.ws()
	if d.i >= len(d.data) {
		return false
	}
	switch pl.kind {
	case planBool:
		if d.literal("true") {
			*(*bool)(p) = true
			return true
		}
		return d.literal("false")
	case planInt:
		n, ok := d.int(64)
		*(*int64)(p) = n
		return ok
	case planInt32:
		n, ok := d.int(32)
		*(*int32)(p) = int32(n)
		return ok
	case planUint64:
		n, ok := d.uint()
		*(*uint64)(p) = n
		return ok
	case planFloat64:
		f, ok := d.float()
		*(*float64)(p) = f
		return ok
	case planString:
		s, ok := d.str()
		if ok {
			*(*string)(p) = string(s)
		}
		return ok
	case planBytes:
		if d.literal("null") {
			return true
		}
		s, ok := d.str()
		if !ok {
			return false
		}
		buf := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(buf, s)
		*(*[]byte)(p) = buf[:n]
		return err == nil
	case planSlice:
		if d.literal("null") {
			return true
		}
		if d.data[d.i] != '[' {
			return false
		}
		d.i++
		return d.slice(pl, p)
	case planPtr:
		if d.literal("null") {
			return true
		}
		q := reflect.New(pl.elem.typ).UnsafePointer()
		*(*unsafe.Pointer)(p) = q
		return d.value(pl.elem, q)
	case planStruct:
		if d.data[d.i] != '{' {
			return false
		}
		d.i++
		return d.object(pl, p)
	case planMap:
		if d.literal("null") {
			return true
		}
		if d.data[d.i] != '{' {
			return false
		}
		d.i++
		return d.mapObject(pl, p)
	}
	panic("snapshot: plan codec: unknown plan kind")
}

var comma = []byte{','}

// slice decodes the elements of an array whose '[' is consumed, growing
// the slice at p in place. "[]" is an empty non-nil slice, as
// encoding/json makes it. A scalar array's elements hold no ',' or ']',
// so it is counted first and allocated once.
func (d *decoder) slice(pl *plan, p unsafe.Pointer) bool {
	h := (*sliceHeader)(p)
	sv := reflect.NewAt(pl.typ, p).Elem()
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == ']' {
		d.i++
		sv.Set(reflect.MakeSlice(pl.typ, 0, 0))
		return true
	}
	count := -1
	if pl.scalarElems {
		end := bytes.IndexByte(d.data[d.i:], ']')
		if end < 0 {
			return false
		}
		count = bytes.Count(d.data[d.i:d.i+end], comma) + 1
		sv.Grow(count)
	}
	size := pl.elem.size
	for n := 0; ; n++ {
		if n == h.cap {
			if count >= 0 {
				return false
			}
			h.len = n
			sv.Grow(1)
		}
		if !d.value(pl.elem, unsafe.Add(h.data, uintptr(n)*size)) {
			return false
		}
		d.ws()
		if d.i >= len(d.data) {
			return false
		}
		switch d.data[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			h.len = n + 1
			return count < 0 || h.len == count
		default:
			return false
		}
	}
}

// object decodes the members of an object whose '{' is consumed. Keys
// must name fields exactly and in declaration order, so none repeats;
// fields left out keep their zero value, as with encoding/json.
func (d *decoder) object(pl *plan, p unsafe.Pointer) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == '}' {
		d.i++
		return true
	}
	next := 0
	for {
		d.ws()
		j := next
		for j < len(pl.fields) && !hasPrefix(d.data[d.i:], pl.fields[j].quoted) {
			j++
		}
		if j == len(pl.fields) {
			return false
		}
		f := &pl.fields[j]
		d.i += len(f.quoted)
		if !d.byte(':') || !d.value(f.plan, unsafe.Add(p, f.offset)) {
			return false
		}
		next = j + 1
		d.ws()
		if d.i >= len(d.data) {
			return false
		}
		switch d.data[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return true
		default:
			return false
		}
	}
}

// mapObject decodes the members of a map[int]*T object whose '{' is
// consumed. A key must be a canonical decimal (no sign but '-', no
// leading zero), so distinct keys are distinct ints; a repeated key
// fails.
func (d *decoder) mapObject(pl *plan, p unsafe.Pointer) bool {
	m := reflect.MakeMap(pl.typ)
	reflect.NewAt(pl.typ, p).Elem().Set(m)
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == '}' {
		d.i++
		return true
	}
	kt := pl.typ.Key()
	for {
		d.ws()
		ks, ok := d.str()
		if !ok {
			return false
		}
		kd := decoder{data: ks}
		n, ok := kd.int(int(kt.Size()) * 8)
		if !ok || kd.i != len(ks) {
			return false
		}
		k := reflect.New(kt).Elem()
		k.SetInt(n)
		if m.MapIndex(k).IsValid() {
			return false
		}
		var q unsafe.Pointer
		if !d.byte(':') || !d.value(pl.elem, unsafe.Pointer(&q)) {
			return false
		}
		m.SetMapIndex(k, reflect.NewAt(pl.elem.typ, unsafe.Pointer(&q)).Elem())
		d.ws()
		if d.i >= len(d.data) {
			return false
		}
		switch d.data[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return true
		default:
			return false
		}
	}
}
