package campaign

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestConcurrentCampaignsShareCompilers runs two campaigns at once on the
// process-wide compiler set (nil Compilers) and checks each one's report
// document against the same campaign run alone.
func TestConcurrentCampaignsShareCompilers(t *testing.T) {
	seeds := []int64{3, 4}
	run := func(seed int64) ([]byte, error) {
		o := smallOptions(12)
		o.Seed, o.Compilers, o.Workers = seed, nil, 2
		r := Run(o)
		if r.Err != nil {
			return nil, r.Err
		}
		return json.Marshal(r.Doc())
	}
	want := make([][]byte, len(seeds))
	for i, s := range seeds {
		doc, err := run(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = doc
	}
	got := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			got[i], errs[i] = run(s)
		}(i, s)
	}
	wg.Wait()
	for i, s := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", s, errs[i])
		}
		if string(got[i]) != string(want[i]) {
			t.Errorf("seed %d: concurrent report document differs from the sequential one:\n%s\nvs\n%s", s, got[i], want[i])
		}
	}
}
