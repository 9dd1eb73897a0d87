package trace

import (
	"strings"
	"testing"
)

func TestParseDin(t *testing.T) {
	in := `
# a comment
0 1000
1 0x1040
2 2000
0 10ff
`
	recs, err := ParseDin(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if recs[0] != (DinRecord{Label: 0, Address: 0x1000}) {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if recs[1] != (DinRecord{Label: 1, Address: 0x1040}) {
		t.Fatalf("record 1 (0x prefix): %+v", recs[1])
	}
	if recs[2].Label != 2 {
		t.Fatalf("record 2: %+v", recs[2])
	}
}

func TestParseDinErrors(t *testing.T) {
	cases := []string{
		"",       // empty
		"0",      // missing address
		"x 1000", // bad label
		"0 zzzz", // bad address
		"# only\n# comments",
	}
	for i, c := range cases {
		if _, err := ParseDin(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDinReplayer(t *testing.T) {
	recs := []DinRecord{
		{Label: 0, Address: 0x1000},
		{Label: 2, Address: 0x9999}, // ifetch: dropped
		{Label: 1, Address: 0x1040},
		{Label: 0, Address: 0x1004}, // same line as 0x1000
	}
	rep, err := DinReplayer(recs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 3 {
		t.Fatalf("replayer holds %d refs", rep.Len())
	}
	want := []uint64{0x1000 / 64, 0x1040 / 64, 0x1000 / 64}
	for i, w := range want {
		if got := rep.Next(); got != w {
			t.Fatalf("ref %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestDinReplayerErrors(t *testing.T) {
	if _, err := DinReplayer(nil, 64); err == nil {
		t.Fatal("accepted empty trace")
	}
	if _, err := DinReplayer([]DinRecord{{Label: 2, Address: 1}}, 64); err == nil {
		t.Fatal("accepted ifetch-only trace")
	}
	if _, err := DinReplayer([]DinRecord{{Label: 0, Address: 1}}, 48); err == nil {
		t.Fatal("accepted non-power-of-two line size")
	}
}
