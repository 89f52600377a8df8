// Package detect implements the paper's two-tier pricing-cyberattack
// detection (Section 4).
//
// Tier 1 — single-event detection (Section 4.1): predict the guideline price
// (package forecast), simulate the community's scheduling response under the
// predicted and the received prices (package loadpred), and report an attack
// when the received price's PAR exceeds the predicted one by more than δ_P.
//
// Tier 2 — long-term detection (Section 4.2): a POMDP whose hidden state is
// the (bucketed) number of hacked smart meters. The observation is produced
// by a per-meter deviation channel: each meter's realized consumption profile
// is compared with the profile the load predictor expects for it; deviating
// meters are flagged and the flagged count, bucketed, is the POMDP
// observation o ∈ O. The transition and observation functions are calibrated
// by Monte-Carlo simulation of the campaign process and the flag channel —
// the paper's "trained based on the historical data".
//
// The net-metering impact enters through the load predictor: the NM-blind
// detector expects profiles from the [9]-style no-PV/no-battery model, so PV
// households' midday exports and battery shifting look like attack deviations
// (false flags) while genuinely hacked meters' shifts are partially masked —
// exactly the accuracy collapse the paper measures (65.95% vs 95.14%).
package detect

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"nmdetect/internal/loadpred"
	"nmdetect/internal/timeseries"
)

// SingleEvent is the SVR-based single-event detector of Section 4.1.
type SingleEvent struct {
	// Pred simulates the community response to a price.
	Pred *loadpred.Predictor
	// DeltaPAR is the detection threshold δ_P.
	DeltaPAR float64
}

// SingleEventResult reports one single-event check.
type SingleEventResult struct {
	// PredictedPAR is P_p, the PAR of the load under the predicted price.
	PredictedPAR float64
	// ReceivedPAR is P_r, the PAR of the load under the received price.
	ReceivedPAR float64
	// Attack is true when P_r − P_p > δ_P.
	Attack bool
}

// Check runs the four-step single-event procedure on a predicted and a
// received guideline price. The context cancels the underlying game solves.
func (d *SingleEvent) Check(ctx context.Context, predictedPrice, receivedPrice timeseries.Series) (SingleEventResult, error) {
	if d.Pred == nil {
		return SingleEventResult{}, errors.New("detect: single-event detector has no predictor")
	}
	if d.DeltaPAR <= 0 {
		return SingleEventResult{}, fmt.Errorf("detect: threshold δ_P %v must be positive", d.DeltaPAR)
	}
	pp, err := d.Pred.PredictPAR(ctx, predictedPrice)
	if err != nil {
		return SingleEventResult{}, err
	}
	pr, err := d.Pred.PredictPAR(ctx, receivedPrice)
	if err != nil {
		return SingleEventResult{}, err
	}
	return SingleEventResult{
		PredictedPAR: pp,
		ReceivedPAR:  pr,
		Attack:       pr-pp > d.DeltaPAR,
	}, nil
}

// Bucketizer maps hacked-meter counts onto the POMDP's state/observation
// alphabet. Bucket i covers counts in [Bounds[i-1]+1, Bounds[i]]; bucket 0 is
// exactly count 0; the last bucket is everything above the final bound.
type Bucketizer struct {
	// Bounds are ascending positive upper bounds, e.g. {2, 10, 30, 75}
	// yields buckets {0}, 1–2, 3–10, 11–30, 31–75, 76+.
	Bounds []int
}

// NewBucketizer validates the bounds.
func NewBucketizer(bounds []int) (Bucketizer, error) {
	if len(bounds) == 0 {
		return Bucketizer{}, errors.New("detect: empty bucket bounds")
	}
	prev := 0
	for i, b := range bounds {
		if b <= prev {
			return Bucketizer{}, fmt.Errorf("detect: bucket bound %d at %d not ascending/positive", b, i)
		}
		prev = b
	}
	return Bucketizer{Bounds: bounds}, nil
}

// NumBuckets returns the alphabet size (len(Bounds) + 2).
func (b Bucketizer) NumBuckets() int { return len(b.Bounds) + 2 }

// Bucket maps a count to its bucket index.
func (b Bucketizer) Bucket(count int) int {
	if count <= 0 {
		return 0
	}
	idx := sort.SearchInts(b.Bounds, count) // first bound >= count
	return idx + 1
}

// Range returns the inclusive count interval [lo, hi] a bucket covers. cap
// bounds the open last bucket.
func (b Bucketizer) Range(bucket, cap int) (lo, hi int) {
	switch {
	case bucket <= 0:
		return 0, 0
	case bucket == 1:
		return 1, b.Bounds[0]
	case bucket < b.NumBuckets()-1:
		return b.Bounds[bucket-2] + 1, b.Bounds[bucket-1]
	default:
		last := b.Bounds[len(b.Bounds)-1]
		if last+1 > cap {
			return cap, cap
		}
		return last + 1, cap
	}
}

// Representative returns a central count for a bucket (used for reward
// midpoints). cap bounds the open last bucket.
func (b Bucketizer) Representative(bucket, cap int) int {
	lo, hi := b.Range(bucket, cap)
	r := (lo + hi) / 2
	if r > cap {
		r = cap
	}
	return r
}
