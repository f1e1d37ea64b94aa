package taxonomy

import (
	"bytes"
	"reflect"
	"testing"
)

// TestBuildDeterministicAcrossWorkers asserts the concurrency contract
// of the parallel merge stages: the taxonomy built at workers=8 is
// byte-identical (snapshot bytes, senses, operation counts) to the
// workers=1 build on the same extraction groups. CI runs this under
// -race, which also checks the fan-outs for data races.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	groups := benchGroups(6000)
	snapshot := func(workers int) ([]byte, map[string][]string, BuildStats) {
		res := Build(groups, Config{Workers: workers})
		var buf bytes.Buffer
		if err := res.Graph.Freeze().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Senses, res.Stats
	}
	refBytes, refSenses, refStats := snapshot(1)
	for _, w := range []int{2, 8} {
		gotBytes, gotSenses, gotStats := snapshot(w)
		if !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("workers=%d: snapshot bytes differ from serial build", w)
		}
		if !reflect.DeepEqual(gotSenses, refSenses) {
			t.Errorf("workers=%d: sense inventory differs from serial build", w)
		}
		if gotStats != refStats {
			t.Errorf("workers=%d: stats %+v, serial %+v", w, gotStats, refStats)
		}
	}
}
