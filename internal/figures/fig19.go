package figures

import (
	"fmt"

	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Fig19 reproduces Fig. 19 / Tab. 5: end-to-end throughput under real-world
// workloads — the synthetic PanguFS mix (80% of operations in 20% of the
// directories), the CNN-training trace, and the thumbnail trace, the latter
// two with data access against data nodes. Every system deploys the same
// replicated data plane (internal/datanode). Shapes: SwitchFS leads on the
// metadata rows; CephFS trails by orders of magnitude; E-InfiniFS and E-CFS
// land between. The data rows tie: SwitchFS, E-InfiniFS and E-CFS all run at
// the data plane's bound, so those rows measure the data nodes, not the
// metadata service.
func Fig19(sc Scale) Table {
	t := Table{ID: "Fig19", Title: "end-to-end workloads: throughput (Kops/s)",
		Header: []string{"workload", "CephFS", "Emulated-InfiniFS", "Emulated-CFS", "SwitchFS"}}
	cases := []struct {
		name string
		mix  workload.Mix
		skew bool
		data bool
	}{
		{"Synthetic (Pangu, skewed)", workload.PanguMix(), true, false},
		{"CNN Training", workload.CNNTrainingMix(128 << 10), false, true},
		{"Thumbnail", workload.ThumbnailMix(128 << 10), false, true},
		{"CNN Training (metadata)", workload.CNNTrainingMix(0), false, false},
		{"Thumbnail (metadata)", workload.ThumbnailMix(0), false, false},
	}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	for _, cse := range cases {
		row := []string{cse.name}
		var rc stats.Counters
		for _, k := range []sysKind{sysCeph, sysInfiniFS, sysCFS, sysSwitchFS} {
			dataNodes := 0
			if cse.data {
				dataNodes = 8
			}
			sim, sys, done := deploy(17, k, 8, 4, 8, dataNodes, nil)
			ns.Preload(sys)
			workers := sc.Workers * 4 // §7.6: 256 in-flight requests
			if k == sysCeph {
				workers = sc.Workers
			}
			res := runOn(sim, sys, cse.mix.Gen(ns, cse.skew), workers, sc.OpsPerWorker, 8, &rc)
			done()
			row = append(row, kops(res.ThroughputOps()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Recovery reproduces §7.7: time to recover a crashed server (WAL replay +
// re-aggregation + invalidation-list clone) and to restore consistency after
// a switch reboot (flush every change-log). Recovery time is proportional to
// the volume of WAL-resident state.
func Recovery(sc Scale) Table {
	t := Table{ID: "Recovery", Title: "crash recovery time (virtual ms)",
		Header: []string{"scenario", "files", "recovery ms"}}
	for _, files := range []int{sc.Dirs * sc.FilesPerDir / 4, sc.Dirs * sc.FilesPerDir} {
		d, _, rc := recoverServerTime(18, files, sc.Dirs, 0, obsTrace)
		t.AddRow(rc, []string{"server crash", itoa(files), fmt.Sprintf("%.3f", float64(d)/1e6)})
	}
	for _, files := range []int{sc.Dirs * sc.FilesPerDir / 4, sc.Dirs * sc.FilesPerDir} {
		d, rc := recoverSwitchTime(19, files, sc.Dirs)
		t.AddRow(rc, []string{"switch crash", itoa(files), fmt.Sprintf("%.3f", float64(d)/1e6)})
	}
	return t
}

// RecoveryHistory measures item 7 of the roadmap: a server's recovery time
// against the history its log holds. Each row crashes server 1 of the
// recovery figure's server-crash deployment (every file WAL-backed, in half
// the scale's directories) after 0, 1, 4 and 16 churn rounds, each of which
// creates and deletes one file per preloaded file: the live namespace is
// the same on every row, so what grows is what was ever logged. The rows are
// untraced: the recovery figure traces a server recovery already, and the
// churn's spans would double this figure's host time.
func RecoveryHistory(sc Scale) Table {
	t := Table{ID: "RecoveryHistory", Title: "server recovery time against churn history (virtual ms)",
		Header: []string{"rounds", "files", "recovery ms", "redo records"}}
	files, dirs := sc.Dirs*sc.FilesPerDir, max(sc.Dirs/2, 1)
	for _, rounds := range []int{0, 1, 4, 16} {
		d, redo, rc := recoverServerTime(18, files, dirs, rounds, nil)
		t.AddRow(rc, []string{itoa(rounds), itoa(files), fmt.Sprintf("%.3f", float64(d)/1e6), itoa(int(redo))})
	}
	return t
}
