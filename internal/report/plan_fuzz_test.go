package report

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/exp"
)

// planKeys lists a plan's spec keys with their fingerprint hashes, the
// identity the dist handshake compares between coordinator and worker.
func planKeys(p *exp.Plan) []string {
	keys := make([]string, len(p.Specs))
	for i, s := range p.Specs {
		keys[i] = s.Key + "@" + exp.FingerprintHash(s.Runner.Fingerprint())
	}
	return keys
}

// FuzzBuildPlanFromBlob feeds the handshake decoder every fleet worker
// runs on the coordinator's bytes. It must fail cleanly on any input,
// and a blob it accepts must describe its plan completely: re-encoding
// the decoded request rebuilds the same keys and fingerprints in the
// same order.
func FuzzBuildPlanFromBlob(f *testing.F) {
	all := ExperimentIDs()
	for _, seed := range []struct {
		ids  []string
		opts Options
	}{
		{all, Options{Quick: true, Seed: 1}},
		{all, Options{Seed: 42}},
		{all[:1], Options{Trials: 3, Seed: -7}},
		{[]string{"fig3", "fig8"}, Options{Quick: true, Trials: 2, Seed: 9, Scheme: "ed25519"}},
		{nil, Options{}},
	} {
		blob, err := EncodePlanRequest(seed.ids, seed.opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"experiments":["fig3","fig3"],"seed":1}`))
	f.Add([]byte(`{"experiments":["no-such-experiment"]}`))
	f.Add([]byte(`{"experiments":"fig3","trials":-1}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		plan, err := BuildPlanFromBlob(blob)
		if err != nil {
			return
		}
		var pr PlanRequest
		if err := json.Unmarshal(blob, &pr); err != nil {
			t.Fatalf("built a plan from a blob that does not decode: %v", err)
		}
		again, err := EncodePlanRequest(pr.Experiments, pr.Options())
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		rebuilt, err := BuildPlanFromBlob(again)
		if err != nil {
			t.Fatalf("re-encoded blob %s rejected: %v", again, err)
		}
		if got, want := planKeys(rebuilt), planKeys(plan); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-encoded blob %s rebuilt %d specs %v, want %d %v", again, len(got), got, len(want), want)
		}
	})
}
