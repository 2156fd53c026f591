package main

import (
	"bytes"
	"encoding/json"
	"testing"

	talkback "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/queryclassify"
	"repro/internal/storage"
	"repro/internal/value"
)

// The oracle: the Go shapes talkbackd once marshalled its /ask and
// /describe replies from, with json.MarshalIndent. The writer in wire.go
// must produce their bytes exactly.

type translationJSON struct {
	Text        string   `json:"text"`
	Category    string   `json:"category,omitempty"`
	Subtype     string   `json:"subtype,omitempty"`
	Declarative bool     `json:"declarative"`
	Notes       []string `json:"notes,omitempty"`
}

type askResponse struct {
	Verification *translationJSON `json:"verification,omitempty"`
	Columns      []string         `json:"columns,omitempty"`
	Rows         [][]*string      `json:"rows,omitempty"`
	RowCount     int              `json:"row_count"`
	Affected     int              `json:"affected,omitempty"`
	Answer       string           `json:"answer"`
	Feedback     string           `json:"feedback,omitempty"`
	Plan         string           `json:"plan,omitempty"`
}

func translationOut(tr *talkback.Translation) *translationJSON {
	if tr == nil {
		return nil
	}
	return &translationJSON{
		Text:        tr.Text,
		Category:    tr.Class.Category.String(),
		Subtype:     tr.Class.Subtype.String(),
		Declarative: tr.Declarative,
		Notes:       tr.Notes,
	}
}

func askOut(resp *core.Response) askResponse {
	out := askResponse{
		Verification: translationOut(resp.Verification),
		Affected:     resp.Affected,
		Answer:       resp.Answer,
		Feedback:     resp.Feedback,
	}
	if resp.Plan != nil {
		out.Plan = resp.Plan.Fingerprint
	}
	if resp.Result != nil {
		out.Columns = resp.Result.Columns
		out.RowCount = len(resp.Result.Rows)
		out.Rows = make([][]*string, len(resp.Result.Rows))
		for i, row := range resp.Result.Rows {
			cells := make([]*string, len(row))
			for j, v := range row {
				if !v.IsNull() {
					s := v.String()
					cells[j] = &s
				}
			}
			out.Rows[i] = cells
		}
	}
	return out
}

// marshalIndent is the oracle's encoder: MarshalIndent plus the newline.
func marshalIndent(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzReplyWire holds every reply the writer produces to MarshalIndent of
// the oracle shapes: each string field and TEXT cell takes the fuzzed
// strings (empty, invalid UTF-8, U+2028, HTML characters, control bytes),
// shape's bits pick which parts are present — verification, notes, result,
// columns, rows, an empty row, feedback, plan — and the other cells cover
// NULL and every non-TEXT kind.
func FuzzReplyWire(f *testing.F) {
	f.Add("Find movies where Brad Pitt plays.", "There are two answers.", "", "a:full scan{1}>c:hash join", "Star Raiders", "note", uint16(0xffff), int64(42), 1.5, 0)
	f.Add("", "", "", "", "", "", uint16(0), int64(0), 0.0, 0)
	f.Add("<b>&amp;</b>", "line\nbreak\ttab\r\b\f\x00\x1f\x7f", "\u2028\u2029", "\"quoted\" \\ back", "\xff\xfe invalid \xc3", "\ufffd", uint16(0x5a5a), int64(-7), -2e21, -3)
	f.Add("\u00e9 \u00fc \u65e5\u672c", "\xe2\x80", "\xe2\x80\xa8", "&", "<", ">", uint16(0x0f0f), int64(1<<62), 1e-300, 1)
	f.Add("t", "a", "f", "p", "c", "n", uint16(0b1110_0000_0101), int64(-1), 0.1, -1<<40)
	// An empty row between full ones, and a plan whose fingerprint is empty.
	f.Add("t", "a", "", "", "c", "n", uint16(0b0111_0011_0001), int64(3), 2.5, 2)
	f.Fuzz(func(t *testing.T, text, answer, feedback, plan, cell, note string, shape uint16, n int64, x float64, affected int) {
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		resp := &core.Response{Affected: affected, Answer: answer}
		if bit(0) {
			tr := &talkback.Translation{
				Text:        text,
				Declarative: bit(1),
				Class: queryclassify.Result{
					Category: queryclassify.Category(shape >> 12),
					Subtype:  queryclassify.Subtype(n & 15),
				},
			}
			if bit(2) {
				tr.Notes = []string{note, cell, ""}
			} else if bit(3) {
				tr.Notes = []string{}
			}
			resp.Verification = tr
		}
		if bit(4) {
			r := &engine.Result{}
			if bit(5) {
				r.Columns = []string{text, cell, ""}
			} else if bit(6) {
				r.Columns = []string{}
			}
			full := storage.Tuple{
				value.NewNull(), value.NewText(cell), value.NewText(""), value.NewText(note),
				value.NewInt(n), value.NewFloat(x), value.NewBool(n&1 == 1), value.NewDateDays(n % 4_000_000),
			}
			switch (shape >> 7) & 3 {
			case 1:
				r.Rows = []storage.Tuple{full}
			case 2:
				r.Rows = []storage.Tuple{{}, full, {value.NewNull()}}
			case 3:
				r.Rows = []storage.Tuple{}
			}
			resp.Result = r
		}
		if bit(9) {
			resp.Feedback = feedback
		}
		if bit(10) {
			resp.Plan = &planner.Summary{Fingerprint: plan}
		}

		if got, want := encodeAsk(resp), marshalIndent(t, askOut(resp)); !bytes.Equal(got, want) {
			t.Fatalf("/ask reply:\n%s\nwant\n%s", got, want)
		}
		if tr := resp.Verification; tr != nil {
			if got, want := encodeTranslation(tr), marshalIndent(t, translationOut(tr)); !bytes.Equal(got, want) {
				t.Fatalf("/describe reply:\n%s\nwant\n%s", got, want)
			}
		}
		if got, want := encodeFields("narrative", text), marshalIndent(t, map[string]string{"narrative": text}); !bytes.Equal(got, want) {
			t.Fatalf("one-field reply:\n%s\nwant\n%s", got, want)
		}
		if got, want := encodeFields("narrative", answer, "name", cell, "ddl", feedback),
			marshalIndent(t, map[string]string{"ddl": feedback, "name": cell, "narrative": answer}); !bytes.Equal(got, want) {
			t.Fatalf("three-field reply:\n%s\nwant\n%s", got, want)
		}
	})
}
