package overlap

// This file implements the paper's bounds on the overlap stage's task count
// (§8, Equations 3-4). The bounds are phrased over the retained k-mer count
// (ι·K in the paper's notation) and the maximum retained frequency m; they
// hold for any workload and are checked against measured pair counts in
// tests.

// PairBounds returns the paper's bounds on the global number of alignment
// tasks generated from `retained` retained k-mers with frequency cutoff m:
//
//	lower (Eq. 4): every retained k-mer occurs in >= 2 places, yielding at
//	least one pair — retained itself;
//	upper (Eq. 3): each k-mer contributes at most m(m-1)/2 pairs.
//
// Same-read occurrence pairs are skipped by Algorithm 1, so the realized
// count can in degenerate inputs dip below the lower bound only when
// k-mers repeat within single reads; the tests use the permissive lower
// bound 0 in that case.
func PairBounds(retained int64, m int) (lo, hi int64) {
	if retained < 0 || m < 2 {
		return 0, 0
	}
	return retained, retained * int64(m) * int64(m-1) / 2
}
