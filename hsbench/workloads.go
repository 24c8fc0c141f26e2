package main

import (
	"fmt"
	"time"

	"hidestore"
	"hidestore/internal/workload"
)

// spec is one benchmark workload: a version chain from a workload
// preset, the system that stores it, and the retention applied to it.
type spec struct {
	name   string
	preset string
	// versions and versionMB size the chain.
	versions  int
	versionMB int
	// baseline selects OpenBaseline{Index: "ddfs", Rewriter: "capping"}
	// instead of HiDeStore.
	baseline bool
	// window is HiDeStore's fingerprint-cache window (0 = default 1).
	window int
	// retain > 0 is rolling retention: after each backup past the first
	// retain versions, the oldest version is deleted.
	retain int
	// expire is how many of the oldest versions are deleted after the
	// restore phase.
	expire int
	// remote stores on the simulated remote backend with real sleeps,
	// two restore workers and a persistent read cache of cacheMB.
	remote  bool
	cacheMB int
}

// Remote backend timing for macos-remote. ErrRate stays 0 so no retry
// backoff (random by design) enters the timings.
const (
	remoteLatency   = 2 * time.Millisecond
	remoteBandwidth = 400 // MB/s
)

var specs = []spec{
	{name: "kernel-local", preset: "kernel", versions: 12, versionMB: 16, expire: 6},
	{name: "gcc-retention", preset: "gcc", versions: 12, versionMB: 16, retain: 5},
	{name: "macos-remote", preset: "macos", versions: 5, versionMB: 72, window: 2,
		remote: true, cacheMB: 96, expire: 3},
	// The baseline expires after its restores, not between backups: with
	// deletes between backups its garbage collector loses chunks that
	// later versions reference (see the package comment).
	{name: "gcc-ddfs", preset: "gcc", versions: 12, versionMB: 16, expire: 7, baseline: true},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// generator returns the version-chain generator for seed. Workloads that
// share a preset and size (gcc-retention, gcc-ddfs) get identical inputs.
func (s spec) generator(seed int64) (*workload.Generator, error) {
	cfg, err := workload.Preset(s.preset, s.versionMB)
	if err != nil {
		return nil, err
	}
	cfg.Versions = s.versions
	cfg.Seed = seed
	return workload.New(cfg)
}

// config is the public-API configuration of the workload's system.
// Everything not set here keeps the library default: TTTD chunking,
// 4 MB containers, the FAA restore cache.
func (s spec) config(dir string) hidestore.Config {
	cfg := hidestore.Config{Dir: dir, Window: s.window}
	if s.remote {
		cfg.RestoreWorkers = 2
		cfg.Backend = hidestore.BackendConfig{
			Kind:          "remote",
			Latency:       remoteLatency,
			BandwidthMBps: remoteBandwidth,
			SleepScale:    1,
			CacheMB:       s.cacheMB,
		}
	}
	return cfg
}
