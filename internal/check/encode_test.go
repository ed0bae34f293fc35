package check

import "testing"

// TestEncodeVsJSONSoak runs the encode-vs-json oracle past the shared
// three-round budget: each round is a few microseconds of encoding, and
// the float cut-overs it hunts for are rare draws.
func TestEncodeVsJSONSoak(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	c, _ := Named("encode-vs-json")
	if d := Run(c, 2002, rounds); d != nil {
		t.Fatalf("divergence:\n%s", d)
	}
}
