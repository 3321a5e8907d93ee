package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// optimizeGoldenHash pins the exported organization produced by a fixed
// seed on the shared test lake. The hash was captured before the
// clustering RNG migrated from math/rand onto the serializable
// xorshift64* source (multidim.go): the K=1 optimizer path never
// touches the clustering RNG, so the migration must not move this
// output by a single byte. Any legitimate change to the search,
// evaluator, or export encoding will shift the hash — re-capture it
// deliberately, in its own commit, when that happens.
const optimizeGoldenHash = "e6a38d642ac0f577a62af738e9f4e7d5a59a706f2f78ab320005a05fdbc3d174"

func exportHash(t *testing.T, ex *ExportedOrg) string {
	t.Helper()
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestOptimizeGoldenHash(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := OptimizeContext(t.Context(), o, OptimizeConfig{Seed: 7, RepFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Export()
	if _, err := Import(testLake(t), ex); err != nil {
		t.Fatalf("golden export does not round-trip: %v", err)
	}
	if got := exportHash(t, ex); got != optimizeGoldenHash {
		t.Fatalf("optimizer output drifted from the pinned golden hash\n got %s\nwant %s", got, optimizeGoldenHash)
	}
}

// optimizeFingerprintGolden pins Org.Fingerprint of an optimized
// TagCloud organization: every topic, norm and run-accumulator bit,
// which the exported structure hashed above does not carry. Support
// changes add and remove attribute populations in ascending attribute
// order, and floating-point addition is not associative, so any other
// order moves these bits even when the structure stays the same.
const optimizeFingerprintGolden = 0x2ac8195362efb6fd

func TestOptimizeFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which
		// changes low-order bits; the value was captured on amd64.
		t.Skipf("fingerprint pinned on amd64, running on %s", runtime.GOARCH)
	}
	o := kernelTestOrg(t, 5)
	res, _, err := OptimizeContext(t.Context(), o, OptimizeConfig{Seed: 7, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Fingerprint(); got != optimizeFingerprintGolden {
		t.Fatalf("optimized organization fingerprint %#016x, pinned %#016x", got, uint64(optimizeFingerprintGolden))
	}
}

// TestMultiDimSeedDeterminism exercises the path the RNG migration did
// change: tag clustering now draws from the serializable xorshift64*
// source, so two builds from the same seed must agree byte-for-byte on
// every dimension, and a different seed must be free to diverge.
func TestMultiDimSeedDeterminism(t *testing.T) {
	build := func(seed int64) *MultiDim {
		t.Helper()
		md, _, err := BuildMultiDimContext(t.Context(), testLake(t), MultiDimConfig{
			K:        2,
			Optimize: &OptimizeConfig{MaxIterations: 40, Seed: seed},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return md
	}
	a, b := build(11), build(11)
	if len(a.Orgs) != len(b.Orgs) {
		t.Fatalf("same seed produced %d vs %d dimensions", len(a.Orgs), len(b.Orgs))
	}
	for i := range a.Orgs {
		ha, hb := exportHash(t, a.Orgs[i].Export()), exportHash(t, b.Orgs[i].Export())
		if ha != hb {
			t.Errorf("dimension %d differs across identical-seed builds:\n a %s\n b %s", i, ha, hb)
		}
	}
}
