package lake

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// decodeJSON decodes the first JSON value in data, a lake file, into a
// jsonLake. It accepts and rejects exactly the inputs that
// json.NewDecoder(r).Decode(&jsonLake{}) does, and yields the same
// jsonLake, without reflection and reading every byte once:
//
//   - keys match fields as bytes.EqualFold does, so "TABLES" and "tagſ"
//     (U+017F folds to s) name fields; unknown keys are skipped, their
//     values still checked for syntax;
//   - null leaves a string or struct as it was and sets a slice to nil;
//     a repeated key decodes again into what the earlier one left, and
//     an array decodes into the slice it replaces, element by element,
//     reusing spare capacity as reflect does (see decodeArray);
//   - containers nest at most maxDepth deep;
//   - bytes after the first value are ignored; a value cut short by the
//     end of data is an error, readErr if reading stopped on one.
//
// Strings are copied out of data, so the lake never pins the file's
// bytes. A string holding a backslash escape or invalid UTF-8 is
// unquoted by encoding/json, the rules for those being intricate and
// such strings rare in a lake.
func decodeJSON(data []byte, readErr error) (jsonLake, error) {
	d := jsonDecoder{data: data}
	var in jsonLake
	err := d.top(&in)
	if readErr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		err = readErr
	}
	return in, err
}

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// jsonDecoder is a cursor over a JSON document: pos is the next byte
// to read and depth the number of open arrays and objects. scratch is
// strs' reused buffer, all empty strings between calls.
type jsonDecoder struct {
	data    []byte
	pos     int
	depth   int
	scratch []string
}

func (d *jsonDecoder) top(in *jsonLake) error {
	d.ws()
	if d.pos == len(d.data) {
		return io.EOF
	}
	return d.fields("lake object", func(key []byte) (err error) {
		if bytes.EqualFold(key, []byte("tables")) {
			in.Tables, err = decodeArray(d, in.Tables, d.table)
			return err
		}
		return d.skip()
	})
}

func (d *jsonDecoder) table(t *jsonTable) error {
	return d.fields("table object", func(key []byte) (err error) {
		switch {
		case bytes.EqualFold(key, []byte("name")):
			return d.str(&t.Name)
		case bytes.EqualFold(key, []byte("tags")):
			t.Tags, err = d.strs(t.Tags)
		case bytes.EqualFold(key, []byte("attributes")):
			t.Attrs, err = decodeArray(d, t.Attrs, d.attr)
		default:
			err = d.skip()
		}
		return err
	})
}

func (d *jsonDecoder) attr(a *jsonAttr) error {
	return d.fields("attribute object", func(key []byte) (err error) {
		switch {
		case bytes.EqualFold(key, []byte("name")):
			return d.str(&a.Name)
		case bytes.EqualFold(key, []byte("values")):
			a.Values, err = d.strs(a.Values)
		default:
			err = d.skip()
		}
		return err
	})
}

// fields decodes an object into a struct, calling member as object
// does; null leaves the struct as it was.
func (d *jsonDecoder) fields(what string, member func(key []byte) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(member)
	default:
		return d.expected(what)
	}
}

// str decodes a string into *dst; null leaves *dst as it was.
func (d *jsonDecoder) str(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		lit, plain, err := d.stringLit()
		switch {
		case err != nil:
			return err
		case plain:
			*dst = string(lit[1 : len(lit)-1])
			return nil
		default:
			return json.Unmarshal(lit, dst)
		}
	default:
		return d.expected("string")
	}
}

// decodeArray decodes an array, decoding each element with elem, into
// s the way encoding/json decodes into an existing slice: element i
// decodes into s[i] while i < len(s), then into s[:i+1] while i <
// cap(s) (an element a shorter array left behind), then into a zero
// element appended, which grows the slice as reflect.Value.Grow does.
// The result is s cut to the array's length, a new empty slice for
// [], or nil for null.
func decodeArray[T any](d *jsonDecoder, s []T, elem func(*T) error) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return s, d.expected("array")
	}
	i := 0
	err := d.array(func() error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		i++
		return elem(&s[i-1])
	})
	if err != nil {
		return s, err
	}
	if i == 0 {
		return []T{}, nil
	}
	return s[:i], nil
}

// strs decodes an array of strings into s as decodeArray does. Into a
// nil s, which is every string array of a lake file without repeated
// keys, it decodes into the reused scratch buffer and returns an
// exactly sized copy, so a long array is not grown by doubling. The
// copy's capacity equals its length, and capacity a reflect-grown
// slice would have beyond that holds only empty strings, so a
// repeated key decodes into either to the same result.
func (d *jsonDecoder) strs(s []string) ([]string, error) {
	if s != nil || d.peek() != '[' {
		return decodeArray(d, s, d.str)
	}
	buf := d.scratch
	err := d.array(func() error {
		buf = append(buf, "")
		return d.str(&buf[len(buf)-1])
	})
	out := make([]string, len(buf))
	copy(out, buf)
	clear(buf)
	d.scratch = buf[:0]
	return out, err
}

// skip checks the syntax of one value of any kind and steps over it.
func (d *jsonDecoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, _, err := d.stringLit()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		return d.number()
	}
}

// object steps over an object, calling member with each key (unquoted
// bytes, valid until the next read) once the cursor is at its value;
// member must consume the value.
func (d *jsonDecoder) object(member func(key []byte) error) error {
	return d.seq('}', "object key:value pair", func() error {
		if d.peek() != '"' {
			return d.expected("object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.expected("':' after object key")
		}
		d.pos++
		d.ws()
		return member(key)
	})
}

// array steps over an array, calling elem once the cursor is at each
// element; elem must consume the element.
func (d *jsonDecoder) array(elem func() error) error {
	return d.seq(']', "array element", elem)
}

// seq steps over the array or object at the cursor, whose closing
// byte is end, calling item for each comma-separated item in it.
func (d *jsonDecoder) seq(end byte, what string, item func() error) error {
	d.depth++
	if d.depth > maxDepth {
		return fmt.Errorf("offset %d: exceeded max depth %d", d.pos, maxDepth)
	}
	d.pos++
	d.ws()
	if d.peek() != end {
		for {
			if err := item(); err != nil {
				return err
			}
			d.ws()
			if d.peek() != ',' {
				break
			}
			d.pos++
			d.ws()
		}
		if d.peek() != end {
			return d.expected(fmt.Sprintf("',' or '%c' after %s", end, what))
		}
	}
	d.depth--
	d.pos++
	return nil
}

// key steps over an object key and returns it unquoted. Only a key
// with an escape needs unquoting: bytes.EqualFold reads invalid UTF-8
// as U+FFFD, which is what unquoting would turn it into.
func (d *jsonDecoder) key() ([]byte, error) {
	lit, _, err := d.stringLit()
	if err != nil {
		return nil, err
	}
	if bytes.IndexByte(lit, '\\') < 0 {
		return lit[1 : len(lit)-1], nil
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// stringLit steps over the string at the cursor and returns it with its
// quotes. plain reports that it has no escape and is valid UTF-8, so
// its bytes between the quotes are its value.
func (d *jsonDecoder) stringLit() (lit []byte, plain bool, err error) {
	start := d.pos
	plain, ascii := true, true
	for p := start + 1; p < len(d.data); p++ {
		switch c := d.data[p]; {
		case c == '"':
			d.pos = p + 1
			lit = d.data[start:d.pos]
			if !ascii {
				plain = plain && utf8.Valid(lit)
			}
			return lit, plain, nil
		case c == '\\':
			plain = false
			p++
			if p == len(d.data) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch d.data[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					p++
					if p == len(d.data) {
						return nil, false, io.ErrUnexpectedEOF
					}
					if !isHex(d.data[p]) {
						d.pos = p
						return nil, false, d.expected("hexadecimal digit in \\u escape")
					}
				}
			default:
				d.pos = p
				return nil, false, d.expected("string escape code")
			}
		case c < ' ':
			d.pos = p
			return nil, false, d.expected("string character")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

// number steps over a number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *jsonDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.expected("value")
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return d.expected("digit after decimal point")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return d.expected("digit in exponent")
		}
		d.digits()
	}
	return nil
}

func (d *jsonDecoder) digits() {
	for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
		d.pos++
	}
}

// literal steps over the literal word (true, false or null).
func (d *jsonDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.pos] != word[i] {
			return d.expected("literal " + word)
		}
		d.pos++
	}
	return nil
}

// ws steps over JSON white space.
func (d *jsonDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of data.
func (d *jsonDecoder) peek() byte {
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// expected reports that the byte at the cursor is not the start of
// what the schema or the syntax wants there.
func (d *jsonDecoder) expected(what string) error {
	if d.pos == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("offset %d: found %q, expected %s", d.pos, d.data[d.pos], what)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
