package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/querytotext"
)

// jsonDecodeBody is the oracle: how talkbackd decoded request bodies before
// decodeBody, json.NewDecoder over http.MaxBytesReader, with its refusals.
func jsonDecodeBody(w http.ResponseWriter, r *http.Request, maxBody int64, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeFields(w, http.StatusRequestEntityTooLarge,
				"answer", querytotext.BodyLimitEnglish(tooBig.Limit),
				"error", err.Error())
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

// bodyOutcome is what a decode did: the fields it filled, whether it
// accepted the body, and the reply it wrote on a refusal.
type bodyOutcome struct {
	fields any
	ok     bool
	code   int
	reply  string
}

func decodeWithOracle[T any](body []byte, maxBody int64) bodyOutcome {
	var req T
	rec := httptest.NewRecorder()
	ok := jsonDecodeBody(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), maxBody, &req)
	return bodyOutcome{req, ok, rec.Code, rec.Body.String()}
}

func decodeWithBody[T any, P interface {
	*T
	requestBody
}](body io.Reader, maxBody int64) bodyOutcome {
	s := &server{maxBody: maxBody}
	rec := httptest.NewRecorder()
	req, ok := decodeBody[T, P](s, rec, httptest.NewRequest(http.MethodPost, "/", body))
	return bodyOutcome{req, ok, rec.Code, rec.Body.String()}
}

// bodySeeds are the corpus FuzzAskBody starts from, each with the cap it is
// read under: every escape, lone and paired surrogates, invalid UTF-8,
// U+2028, keys encoding/json folds, duplicate keys, null, nested unknown
// members, trailing bytes, syntax errors and bodies over the cap.
var bodySeeds = []struct {
	body string
	max  int16
}{
	{`{"sql":"select m.title from MOVIES m"}`, 1024},
	{`{"sql":"m.year \u003e 1990 \u0026\u0026 m.id \u003c 7"}`, 1024},
	{`{"sql":"\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u00E9 \u2028 \u0000"}`, 1024},
	{`{"sql":"\ud83d\ude00 pair"}`, 1024},
	{`{"sql":"\ud800 lone high"}`, 1024},
	{`{"sql":"\udc00 lone low"}`, 1024},
	{`{"sql":"\ud800\u0041 high then letter"}`, 1024},
	{`{"sql":"\ud800\udbff high then high"}`, 1024},
	{`{"sql":"\ud800"}`, 1024},
	{`{"sql":"\ud800\u00zz"}`, 1024},
	{`{"sql":"\u12"}`, 1024},
	{`{"sql":"\x"}`, 1024},
	{`{"sql":"\'"}`, 1024},
	{"{\"sql\":\"bad \xff byte\"}", 1024},
	{"{\"sql\":\"cut \xe2\x82\"}", 1024},
	{"{\"sql\":\"encoded surrogate \xed\xa0\x80\"}", 1024},
	{"{\"sql\":\"raw \u2028 and é\"}", 1024},
	{"{\"sql\":\"raw \x01 control\"}", 1024},
	{"{\"sql\":\"tab\tinside\"}", 1024},
	{`{"SQL":"folded"}`, 1024},
	{`{"Sql":"folded"}`, 1024},
	{`{"ſql":"long s"}`, 1024},
	{`{"s\u0071l":"escaped key"}`, 1024},
	{`{"sql":"a","sql":"b"}`, 1024},
	{`{"sql":"a","SQL":"b"}`, 1024},
	{`{"sql":"a","sql":null}`, 1024},
	{`{"sql":null}`, 1024},
	{`null`, 1024},
	{`{"x":{"y":[1,{"z":"w"}]},"sql":"q"}`, 1024},
	{`{"other":"v","sql":"q"}`, 1024},
	{`{"sql":7}`, 1024},
	{`{"sql":7,"sql":"x"}`, 1024},
	{`{"sql":true}`, 1024},
	{`{"sql":["a"]}`, 1024},
	{`{"sql":"q"} trailing garbage`, 1024},
	{`{"sql":"q"}{`, 1024},
	{`{"sql":"q",}`, 1024},
	{`{"sql" "q"}`, 1024},
	{`{"sql":"q"`, 1024},
	{`{"sql":"q`, 1024},
	{`{,}`, 1024},
	{`{}`, 1024},
	{`{ }`, 1024},
	{"", 1024},
	{" \t\r\n", 1024},
	{"\v{\"sql\":\"q\"}", 1024},
	{"\xef\xbb\xbf{\"sql\":\"bom\"}", 1024},
	{" \n\t{ \"sql\" :\r\"spaced\" \n}\n", 1024},
	{`[]`, 1024},
	{`"str"`, 1024},
	{`123`, 1024},
	{`123`, 3},
	{`{"session":"s1","profile":"casual"}`, 1024},
	{`{"profile":"","session":"<s&1>\u2028"}`, 1024},
	{`{"Session":"s1","PROFILE":"x"}`, 1024},
	{`{"ſession":"s1"}`, 1024},
	{`{"sql":"` + strings.Repeat("x", 200) + `"}`, 128},
	{`{"sql":"q"}` + strings.Repeat(" ", 200), 16},
	{`{"sql":"q"}`, 11},
	{`{"sql":"q"}`, 10},
	{`{"sql":"q"}`, 0},
	{`{"sql":"q"}`, -1},
	{`{"sql":"\u00e9\ud83d\ude00"}` + strings.Repeat("!", 40), 30},
}

// FuzzAskBody holds decodeBody to the json.Decoder it replaced: for every
// body and cap, both request shapes get the same fields, the same verdict
// and, on a refusal, the same status and reply bytes, whether the body
// arrives whole or a byte per read.
func FuzzAskBody(f *testing.F) {
	for _, s := range bodySeeds {
		f.Add([]byte(s.body), s.max)
	}
	f.Fuzz(func(t *testing.T, body []byte, max int16) {
		limit := int64(max)
		check := func(shape string, want bodyOutcome, got func(io.Reader) bodyOutcome) {
			for _, rd := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
				if g := got(rd); fmt.Sprint(g) != fmt.Sprint(want) {
					t.Fatalf("%s, cap %d, body %q:\ngot  %+v\nwant %+v", shape, limit, body, g, want)
				}
			}
		}
		check("askRequest", decodeWithOracle[askRequest](body, limit), func(rd io.Reader) bodyOutcome {
			return decodeWithBody[askRequest](rd, limit)
		})
		check("sessionRequest", decodeWithOracle[sessionRequest](body, limit), func(rd io.Reader) bodyOutcome {
			return decodeWithBody[sessionRequest](rd, limit)
		})
	})
}

// TestDecodeFlatTakesCommonBodies: the hand decoder, not its encoding/json
// fallback, decodes the bodies clients send — json.Marshal's HTML escapes,
// a multi-line statement, a surrogate pair, every escape, a repeated
// member, trailing bytes — and leaves the unusual ones to the fallback.
func TestDecodeFlatTakesCommonBodies(t *testing.T) {
	for body, want := range map[string]string{
		`{"sql":"select m.title from MOVIES m where m.year \u003e 1990"}`: "select m.title from MOVIES m where m.year > 1990",
		`{"sql": "select *\n  from MOVIES\twhere title = 'x \"y\"'"}`:     "select *\n  from MOVIES\twhere title = 'x \"y\"'",
		`{"sql":"\ud83d\ude00 \ud800"}`:                                   "\U0001F600 \uFFFD",
		`{"sql":"\" \\ \/ \b \f \n \r \t \u00e9 \u00E9"}`:                 "\" \\ / \b \f \n \r \t é é",
		`{"sql":"a", "sql":"b"} trailing`:                                 "b",
		`{}`:                                                              "",
	} {
		var req askRequest
		if !decodeFlat([]byte(body), &req) || req.SQL != want {
			t.Errorf("decodeFlat(%s): %q, want %q", body, req.SQL, want)
		}
	}
	for _, body := range []string{`{"SQL":"x"}`, `{"sql":null}`, `{"x":{},"sql":"y"}`, `{"sql":"x",}`, `null`} {
		if decodeFlat([]byte(body), &askRequest{}) {
			t.Errorf("decodeFlat took %s, which encoding/json must decide", body)
		}
	}
}
