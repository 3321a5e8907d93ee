package lake

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// referenceReadJSON is the reflection decode ReadJSON replaced: the
// first value in data through encoding/json's Decoder, then the same
// lake construction.
func referenceReadJSON(data []byte) (*Lake, error) {
	var in jsonLake
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return nil, err
	}
	return in.build()
}

// jsonSeeds cover what the decoder must treat as encoding/json does.
func jsonSeeds(t testing.TB) []string {
	var written bytes.Buffer
	if err := buildTestLake(t).WriteJSON(&written); err != nil {
		t.Fatal(err)
	}
	return []string{
		written.String(),
		// Escapes: a surrogate pair, lone surrogates, every short escape.
		`{"tables":[{"name":"\ud83d\ude00 \ud800 x \udc00\u00e9\uD83D","tags":["\u0074ag","t\/g"],` +
			`"attributes":[{"name":"a","values":["\ud800\ud800","\\\"\/\b\f\n\r\t","\u0000"]}]}]}`,
		// Invalid UTF-8 in names, keys and values; valid non-ASCII.
		"{\"tables\":[{\"name\":\"\xff\xfe\",\"attributes\":[{\"name\":\"a\xc3\",\"values\":[\"ok\",\"\xe2\x82\",\"caf\xc3\xa9\"]}],\"\xff\":1}]}",
		// Keys matching fields under case folding (U+017F folds to s).
		`{"TABLES":[{"NAME":"t","tagſ":["x"],"Attributes":[{"nAmE":"a","VALUEſ":["v"]}]}]}`,
		`{"t\u0061bles":[{"n\u0041me":"t","attributeſ":[{"name":"a","values":["v"]}]}]}`,
		// Unknown keys holding nested values.
		`{"meta":{"a":[1,2.5,-0.0e+7,{"b":null}],"c":true,"d":false,"e":"s"},"tables":[{"name":"t","extra":[[[]],{}],` +
			`"attributes":[{"name":"a","x":-1.5E-3,"values":["v"]}]}]}`,
		// Nulls and repeated keys: later arrays decode into the slices
		// and elements earlier ones left.
		`{"tables":[{"name":"a","tags":["x","y","z"],"attributes":[{"name":"c","values":["1","2","3"]}]},null,{"name":"b"}],` +
			`"tables":[null,{"name":null,"tags":null}],"tables":[{},{},{"attributes":[{"values":[null,"q",null]}]}]}`,
		`{"tables":[{"name":"a","name":"b","tags":["p"],"tags":[],"tags":[null],"attributes":null,"attributes":[null]}]}`,
		`{"tables":[{"tags":["x"],"tags":null,"attributes":[{"name":"a","values":["v"],"values":null}]}]}`,
		`{"tables":null}`, `null`, `{}`, `{"tables":[]}`,
		`{"tables":[{"name":"t","attributes":[{"name":"a","values":[]},{"name":"b","values":null},{"name":"c"}]}]}`,
		// Trailing bytes after the first value are never read.
		`{"tables":[{"name":"t"}]} trailing`, `null{`, `{"tables":[]}{`, "\t\r\n {\"tables\":[]}\n",
		// Deep nesting: the top object and 9,999 arrays are allowed; one
		// more array is not.
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		// Rejections: syntax, truncation and type mismatches.
		``, `   `, `nul`, `nulx`, `{`, `{"tables":[{"name":5}]}`, `[]`, `"x"`, `1`, `true`,
		`{"tables":[{"name":"t",}]}`, `{"tables":[,]}`, `{"tables":{}}`, `{"tables":["t"]}`,
		`{"tables":[{"tags":"x"}]}`, `{"tables":[{"attributes":[{"values":[1]}]}]}`,
		`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":1e}`, `{"x":"\x"}`, `{"x":"\u12G4"}`, "{\"x\":\"\x01\"}",
		`{"tables":[{"name":"t"}]`, `{"tables" []}`, `{tables:[]}`, `{"x":tru}`, `{"x":nan}`,
	}
}

// FuzzReadJSON checks the lake decoder against encoding/json: the same
// inputs are accepted, and accepted inputs yield deep-equal lakes.
func FuzzReadJSON(f *testing.F) {
	for _, s := range jsonSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		want, wantErr := referenceReadJSON(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON error %v, encoding/json error %v, on %q", err, wantErr, data)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("lakes differ on %q:\ndecoder:       %s\nencoding/json: %s", data, dumpLake(got), dumpLake(want))
		}
	})
}

func dumpLake(l *Lake) string {
	var b strings.Builder
	for _, t := range l.Tables {
		b.WriteString(t.Name)
		b.WriteString(strings.Join(t.Tags, ","))
		for _, id := range t.Attrs {
			a := l.Attrs[id]
			vals, _ := json.Marshal(a.Values)
			b.WriteString(" [" + a.Name + " " + string(vals) + "]")
		}
		b.WriteString("; ")
	}
	return b.String()
}

// TestReadJSONReadError checks that an error ending the read is
// reported only when the value is cut short, as a Decoder does: a
// complete first value decodes whatever follows.
func TestReadJSONReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		data string
		ok   bool
	}{
		{`{"tables":[]}`, true},
		{`{"tables":[`, false},
		{``, false},
	} {
		r := io.MultiReader(strings.NewReader(tc.data), &errReader{boom})
		_, err := ReadJSON(r)
		if tc.ok != (err == nil) {
			t.Errorf("%q: err = %v, want ok %v", tc.data, err, tc.ok)
		}
		if !tc.ok && !errors.Is(err, boom) {
			t.Errorf("%q: err = %v, want the read error", tc.data, err)
		}
	}
}

type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

// TestDecodeJSONExactStringArrays checks that tags and values arrays
// decode to exactly sized slices, one after another through the shared
// scratch buffer, with a shorter array after a longer one seeing none
// of the longer one's strings.
func TestDecodeJSONExactStringArrays(t *testing.T) {
	var long []string
	for i := 0; i < 1000; i++ {
		long = append(long, fmt.Sprintf("v%d", i))
	}
	longJSON, _ := json.Marshal(long)
	doc := `{"tables":[{"name":"t","tags":["a","b","c"],"attributes":[` +
		`{"name":"x","values":` + string(longJSON) + `},` +
		`{"name":"y","values":["p",null,"q"]}]}]}`
	in, err := decodeJSON([]byte(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := in.Tables[0]
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"tags", tb.Tags, []string{"a", "b", "c"}},
		{"values x", tb.Attrs[0].Values, long},
		{"values y", tb.Attrs[1].Values, []string{"p", "", "q"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %q, want %q", c.name, c.got, c.want)
		}
		if cap(c.got) != len(c.got) {
			t.Errorf("%s: cap %d, len %d; want an exactly sized slice", c.name, cap(c.got), len(c.got))
		}
	}
}
