package paf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func sample() []Record {
	return []Record{
		{QName: "r1", QLen: 100, QStart: 10, QEnd: 90, Strand: '+',
			TName: "r2", TLen: 120, TStart: 0, TEnd: 80, Score: 70, NSeeds: 3},
		{QName: "r3", QLen: 50, QStart: 0, QEnd: 50, Strand: '-',
			TName: "r4", TLen: 60, TStart: 5, TEnd: 55, Score: 44, NSeeds: 1},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(back) != len(want) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, back[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Record{
		{Strand: 'x', QLen: 10, TLen: 10},
		{Strand: '+', QLen: 10, QStart: 5, QEnd: 3, TLen: 10},
		{Strand: '+', QLen: 10, QEnd: 11, TLen: 10},
		{Strand: '+', QLen: 10, TLen: 10, TStart: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("record %d validated", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"r1\t100\t10", // too few fields
		"r1\t100\t10\t90\t++\tr2\t120\t0\t80\t70\t3", // bad strand
		"r1\tabc\t10\t90\t+\tr2\t120\t0\t80\t70\t3",  // bad int
		"r1\t100\t10\t90\t+\tr2\t120\t0\t200\t70\t3", // invalid span
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("input %q parsed", in)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n" + sample()[0].String() + "\n"
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestStringTabs(t *testing.T) {
	line := sample()[0].String()
	if got := strings.Count(line, "\t"); got != 10 {
		t.Errorf("line has %d tabs, want 10", got)
	}
}

// A record renders exactly as the 11-verb fmt.Sprintf it replaced, over
// random names, coordinates of either sign and any strand byte (%c of a byte
// past ASCII is its rune's UTF-8), and Write's output parses back to the
// records it was given.
func TestStringMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	num := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(10)
		case 1:
			return -rng.Intn(1000)
		case 2:
			return int(rng.Int63())
		}
		return math.MinInt64 + rng.Intn(3)
	}
	for i := 0; i < 2000; i++ {
		r := Record{QName: name(), QLen: num(), QStart: num(), QEnd: num(), Strand: byte(rng.Intn(256)),
			TName: name(), TLen: num(), TStart: num(), TEnd: num(), Score: num(), NSeeds: num()}
		want := fmt.Sprintf("%s\t%d\t%d\t%d\t%c\t%s\t%d\t%d\t%d\t%d\t%d",
			r.QName, r.QLen, r.QStart, r.QEnd, r.Strand, r.TName, r.TLen, r.TStart, r.TEnd, r.Score, r.NSeeds)
		if got := r.String(); got != want {
			t.Fatalf("record %+v:\n got %q\nwant %q", r, got, want)
		}
	}

	var recs []Record
	for i := 0; i < 500; i++ {
		ql, tl := 1+rng.Intn(20000), 1+rng.Intn(20000)
		qs, ts := rng.Intn(ql), rng.Intn(tl)
		recs = append(recs, Record{QName: fmt.Sprintf("read%d", rng.Intn(1e6)), QLen: ql, QStart: qs, QEnd: qs + rng.Intn(ql-qs+1),
			Strand: "+-"[rng.Intn(2)], TName: fmt.Sprintf("read%d", rng.Intn(1e6)), TLen: tl, TStart: ts, TEnd: ts + rng.Intn(tl-ts+1),
			Score: rng.Intn(20000) - 100, NSeeds: rng.Intn(50)})
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i := range recs {
		want.WriteString(recs[i].String() + "\n")
	}
	if buf.String() != want.String() {
		t.Fatal("Write differs from String line by line")
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, recs) {
		t.Fatal("Parse(Write(recs)) != recs")
	}
}
