package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// failShare is failed / attempted over a workload's runs.
func (r *record) failShare(wl string) float64 {
	var failed, attempted int
	for _, run := range r.Runs {
		if run.Workload == wl {
			failed += run.Result.Failed
			attempted += run.Result.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict judges one workload × metric: how much worse the new median is than
// the old as a share of the old, against the bound; when either side's own
// run-to-run spread (interquartile distance over its median) is wider than
// the bound, the pair cannot be told apart and is unresolved.
func verdict(m specMetric, old, cur summary) (worse float64, v string) {
	worse = ratio(cur.Median-old.Median, old.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(old.Q3-old.Q1, old.Median), ratio(cur.Q3-cur.Q1, cur.Median))
	switch {
	case spread > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareRecords prints, per workload × end-to-end metric, both medians, the
// bound and the verdict, and fails on any regression or a higher share of
// failed requests.
func compareRecords(sp *spec, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (%s, %d cpus, %d rep)\nnew: %s (%s, %d cpus, %d rep)\n",
		oldPath, old.Stamp.GitSHA, old.Stamp.NProc, old.Stamp.Repeat,
		newPath, cur.Stamp.GitSHA, cur.Stamp.NProc, cur.Stamp.Repeat)
	bad := 0
	for _, wl := range workloadNames {
		fmt.Printf("\n== %s ==\n%-22s %14s %14s %9s %7s  %s\n", wl, "metric", "old median", "new median", "worse by", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			o, okOld := old.Summary[wl][m.Name]
			c, okNew := cur.Summary[wl][m.Name]
			if !okOld || !okNew {
				fmt.Printf("%-22s missing from %s\n", m.Name, map[bool]string{true: newPath, false: oldPath}[okOld])
				bad++
				continue
			}
			worse, v := verdict(m, o, c)
			if v == "regressed" {
				bad++
			}
			fmt.Printf("%-22s %14.4f %14.4f %8.2f%% %6.1f%%  %s\n", m.Name, o.Median, c.Median, 100*worse, 100*m.Bound, v)
		}
		if o, c := old.failShare(wl), cur.failShare(wl); c > o {
			fmt.Printf("%-22s %14.4f %14.4f  regressed: more requests fail\n", "fail share", o, c)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s)", bad)
	}
	return nil
}
