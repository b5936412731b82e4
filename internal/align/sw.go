package align

// SmithWaterman computes the optimal local alignment score between s and t
// with linear gap costs, in O(|s|·|t|) time and O(|t|) space. It is the
// reference kernel the cheaper kernels are validated against.
func SmithWaterman(s, t []byte, sc Scoring) Result {
	if len(s) == 0 || len(t) == 0 {
		return Result{}
	}
	prev := make([]int, len(t)+1)
	cur := make([]int, len(t)+1)
	best := Result{}
	for i := 1; i <= len(s); i++ {
		cur[0] = 0
		for j := 1; j <= len(t); j++ {
			v := prev[j-1] + sc.sub(s[i-1], t[j-1])
			if up := prev[j] + sc.Gap; up > v {
				v = up
			}
			if left := cur[j-1] + sc.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best.Score {
				best.Score = v
				best.SEnd, best.TEnd = i, j
			}
		}
		prev, cur = cur, prev
	}
	best.Cells = int64(len(s)) * int64(len(t))
	// Start positions would need a traceback: the kernel reports the end
	// coordinates and leaves the starts at 0.
	return best
}
