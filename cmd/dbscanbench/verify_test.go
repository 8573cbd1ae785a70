package main

import (
	"strings"
	"testing"

	"pdbscan/internal/dataset"
)

// TestVerifyDatasetStatus checks both ends of the verify row: a valid
// configuration reports OK with every variant run, and one that no exact
// variant accepts reports ERROR (no nil dereference of the missing base).
func TestVerifyDatasetStatus(t *testing.T) {
	pts, err := dataset.Generate("ss-varden-2d", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clusters, count, status := verifyDataset(pts, dsConfig{name: "ss-varden-2d", eps: 1000, minPts: 20})
	if status != "OK" || clusters == "-" || count != 2*8+2 {
		t.Fatalf("valid config: clusters=%s count=%d status=%q; want OK with 18 variants", clusters, count, status)
	}
	clusters, count, status = verifyDataset(pts, dsConfig{name: "ss-varden-2d", eps: -1, minPts: 20})
	if !strings.HasPrefix(status, "ERROR") || clusters != "-" || count != 0 {
		t.Fatalf("invalid eps: clusters=%s count=%d status=%q; want ERROR with no variants run", clusters, count, status)
	}
}
