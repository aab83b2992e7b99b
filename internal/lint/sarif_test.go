package lint_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"sapla/internal/lint"
)

// TestSARIF pins the SARIF 2.1.0 envelope: version, tool name, one rule per
// analyzer (plus the directive pseudo-check), root-relative forward-slash
// URIs, and results in the driver's sorted order.
func TestSARIF(t *testing.T) {
	analyzers, err := lint.Analyzers()
	if err != nil {
		t.Fatal(err)
	}
	d1 := lint.Diagnostic{Check: "lockguard", Message: "write without the lock"}
	d1.Pos.Filename = "/repo/internal/index/concurrent.go"
	d1.Pos.Line = 42
	d1.Pos.Column = 7
	d2 := lint.Diagnostic{Check: "arenaretain", Message: "slice escapes"}
	d2.Pos.Filename = "/elsewhere/x.go"
	d2.Pos.Line = 3
	d2.Pos.Column = 1

	data, err := lint.SARIF(analyzers, []lint.Diagnostic{d1, d2}, "/repo")
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sapla-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if want := len(analyzers) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d (every analyzer plus the directive pseudo-check)",
			len(run.Tool.Driver.Rules), want)
	}
	for i := 1; i < len(run.Tool.Driver.Rules); i++ {
		if run.Tool.Driver.Rules[i-1].ID >= run.Tool.Driver.Rules[i].ID {
			t.Errorf("rules not sorted: %q before %q", run.Tool.Driver.Rules[i-1].ID, run.Tool.Driver.Rules[i].ID)
		}
	}
	ruleIDs := make(map[string]bool, len(run.Tool.Driver.Rules))
	for _, rule := range run.Tool.Driver.Rules {
		ruleIDs[rule.ID] = true
	}
	for _, id := range []string{"arenaretain", "goleak", "taintflow"} {
		if !ruleIDs[id] {
			t.Errorf("rules missing %q — the flow-sensitive analyzers must publish SARIF rules", id)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "lockguard" || r.Level != "error" {
		t.Errorf("result 0 = %s/%s, want lockguard/error", r.RuleID, r.Level)
	}
	if got := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/index/concurrent.go" {
		t.Errorf("in-root URI = %q, want root-relative internal/index/concurrent.go", got)
	}
	if got := r.Locations[0].PhysicalLocation.Region.StartLine; got != 42 {
		t.Errorf("startLine = %d, want 42", got)
	}
	if got := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "/elsewhere/x.go" {
		t.Errorf("out-of-root URI = %q, want the absolute path kept", got)
	}

	// Byte-stability: the same inputs must render the same bytes.
	again, err := lint.SARIF(analyzers, []lint.Diagnostic{d1, d2}, "/repo")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("SARIF output differs between identical runs")
	}
}
