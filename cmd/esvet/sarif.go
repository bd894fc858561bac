package main

import (
	"encoding/json"
	"io"

	"edgeswitch/internal/analysis"
)

// SARIF 2.1.0 output, the subset GitHub code scanning ingests: one run,
// one driver, one rule per registered check, one result per diagnostic.
// Struct-literal encoding keeps the output deterministic (field order is
// fixed, results arrive pre-sorted from RunChecks).

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifText    `json:"shortDescription"`
	DefaultConfiguration sarifDefault `json:"defaultConfiguration"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifDefault struct {
	Level string `json:"level"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF emits the diagnostics of one module analysis as a SARIF
// log. checks is the set that ran (rules metadata); nil means all.
func writeSARIF(w io.Writer, checks []*analysis.Check, diags []analysis.Diagnostic) error {
	if checks == nil {
		checks = analysis.Checks()
	}
	rules := make([]sarifRule, len(checks))
	for i, c := range checks {
		rules[i] = sarifRule{
			ID:                   c.Name,
			ShortDescription:     sarifText{Text: c.Doc},
			DefaultConfiguration: sarifDefault{Level: "error"},
		}
	}
	results := make([]sarifResult, len(diags))
	for i, d := range diags {
		results[i] = sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		}
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "esvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
