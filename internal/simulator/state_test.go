package simulator

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestEngineStateLoadsRetiredDelta: engine snapshots written while the
// engine still counted a per-snapshot change record carry a "delta" key.
// They load as before — encoding/json skips the key — and the restored
// engine exports everything else of them unchanged.
func TestEngineStateLoadsRetiredDelta(t *testing.T) {
	raw, err := os.ReadFile("testdata/engine_state_with_delta.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if _, ok := want["delta"]; !ok {
		t.Fatal("fixture carries no delta key")
	}
	delete(want, "delta")

	var st EngineState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	e, err := EngineFromState(&st)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(e.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-exported state differs from the loaded one:\n got  %s\n want %s", out, raw)
	}
}
