package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/cli"
)

// workload is one named campaign configuration the benchmark runs. Every
// workload goes through cli.Config → campaign.Run, the path the CLIs and
// the server use, so a measured change is one users see.
type workload struct {
	name string
	// units is the campaign size of one timed pass: large enough that a
	// pass takes a few hundred milliseconds, so per-pass timer and
	// scheduling noise stays small against it.
	units int
	// durable gives every pass a fresh state directory and adds a resume
	// of the finished directory after the workers = nproc pass.
	durable bool
	// costs and strata, when set, draw each repetition's seed block from
	// a fixed table instead of from the seed's own range: block j is the
	// units seeds from base + j*units. See blockSeed.
	base   int64
	costs  []blockCost
	strata [][]int
	// config returns the campaign configuration for one pass.
	config func() *cli.Config
}

// workloads are the benchmark's workloads, by name. Why each one was
// chosen is recorded in BENCHMARK.json; in short:
//
//   - mutate-gt is the paper's Figure 7 campaign, dominated by the type
//     graph and the TEM/TOM/REM mutations (the mutation path).
//   - diff-budget bypasses mutation entirely: generation, the governor's
//     guarded cache-bypassing checker path, translators and the
//     differential oracle.
//   - synth-durable has tiny synthesized units, so per-unit overhead
//     (harness, stage hand-offs, journal, fold) dominates, and its state
//     directory is resumed after every pass.
var workloads = map[string]workload{
	"mutate-gt": {
		name:   "mutate-gt",
		units:  8,
		base:   7_000_000,
		costs:  mutateCosts,
		strata: stratify(mutateCosts, 8),
		config: func() *cli.Config {
			return cli.NewConfig()
		},
	},
	"diff-budget": {
		name:   "diff-budget",
		units:  60,
		base:   9_000_000,
		costs:  diffCosts,
		strata: stratify(diffCosts, 12),
		config: func() *cli.Config {
			c := cli.NewConfig()
			c.Oracle = "differential"
			c.NoMutate = true
			c.Fuel = 30000
			c.StressEvery = 4
			return c
		},
	},
	"synth-durable": {
		name:    "synth-durable",
		units:   600,
		durable: true,
		config: func() *cli.Config {
			c := cli.NewConfig()
			c.Synth = true
			// One fsync per snapshot interval's worth of records. With
			// the default fsync after every record the aggregator waits
			// on the disk for each unit, and throughput followed the
			// shared disk's latency from run to run by up to 2.5×.
			c.SyncEvery = 64
			return c
		},
	},
}

// options returns the campaign options of one pass over the block at
// seed, built the way the CLIs build them: from a cli.Config.
func (w workload) options(seed int64, workers int, stateDir string, resume bool) (campaign.Options, error) {
	cfg := w.config()
	cfg.Seed = seed
	cfg.Programs = w.units
	cfg.Workers = workers
	cfg.StateDir = stateDir
	cfg.Resume = resume
	return cfg.CampaignOptions()
}

// lookupWorkload returns the named workload or an error listing the
// known names.
func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	return w, nil
}

// blockSeed is the base seed of repetition rep of a run seeded seed. The
// same (seed, rep) always yields the same programs.
//
// Without strata, repetitions cover disjoint seed ranges of the run's
// own. With strata, each cycle of len(strata) repetitions takes one
// block from every stratum (see cycleBlocks), and a run measures whole
// cycles, so every run measures the same mix of cheap and expensive
// programs while different seeds measure different programs.
func (w workload) blockSeed(seed int64, rep int) int64 {
	if len(w.strata) == 0 {
		return seed*1_000_000 + int64(rep)*int64(w.units)
	}
	n := len(w.strata)
	return w.base + int64(w.cycleBlocks(seed, rep/n)[rep%n])*int64(w.units)
}

// cycleCandidates is how many seeded draws cycleBlocks compares.
const cycleCandidates = 32

// cycleBlocks returns the blocks of cycle c of a run seeded seed, one
// per stratum in stratum order. Of cycleCandidates seeded draws it keeps
// the one whose total reference time and total allocation are closest to
// those of the average cycle (the larger of the two relative deviations
// is smallest): one block per stratum still leaves the cycle's total
// work to chance within the costliest stratum, and the draw removes most
// of that while different seeds keep drawing different blocks.
func (w workload) cycleBlocks(seed int64, c int) []int {
	var wantMs, wantMB float64
	for _, s := range w.strata {
		for _, j := range s {
			wantMs += w.costs[j].ms / float64(len(s))
			wantMB += w.costs[j].mb / float64(len(s))
		}
	}
	var best []int
	bestDev := math.Inf(1)
	for d := 0; d < cycleCandidates; d++ {
		key := splitmix(splitmix(uint64(seed)) ^ uint64(c)<<32 ^ uint64(d))
		draw := make([]int, len(w.strata))
		var ms, mb float64
		for k, s := range w.strata {
			draw[k] = s[splitmix(key+uint64(k))%uint64(len(s))]
			ms += w.costs[draw[k]].ms
			mb += w.costs[draw[k]].mb
		}
		if dev := max(math.Abs(ms/wantMs-1), math.Abs(mb/wantMB-1)); dev < bestDev {
			best, bestDev = draw, dev
		}
	}
	return best
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// blockCost is a seed block's reference cost: the wall time in
// milliseconds of a 1-worker campaign over it on one processor, and the
// heap it allocates in MB.
type blockCost struct {
	ms, mb float64
}

// stratify ranks blocks by reference time and cuts the ranking into n
// strata of equal size, cheapest first; n must divide the number of
// blocks.
func stratify(costs []blockCost, n int) [][]int {
	order := make([]int, len(costs))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]].ms < costs[order[b]].ms })
	per := len(costs) / n
	strata := make([][]int, n)
	for k := range strata {
		strata[k] = order[k*per : (k+1)*per]
	}
	return strata
}

// The workloads' seed-block tables. Per-program cost is heavy-tailed on
// mutate-gt (block times range over 20x, the costliest tenth of blocks
// take a fifth of the time) and varies with program size and the
// stress cadence on diff-budget, so runs of independent blocks measured
// a throughput that moved with how many expensive blocks they drew. Each
// table holds its blocks' reference costs; the workload cuts them into
// strata of equal size and balances each cycle's draw with them.
// TestStrata re-measures a table.
var mutateCosts = []blockCost{
	{489, 161.7}, {1148, 271.2}, {693, 175.1}, {544, 148.2}, {682, 141.6}, {687, 152.2},
	{766, 171.2}, {882, 182.9}, {1027, 179.7}, {2271, 410.6}, {775, 186.1}, {730, 156.5},
	{1834, 311.3}, {1288, 188.8}, {526, 168.5}, {676, 144.2}, {1068, 203.0}, {1245, 262.6},
	{1320, 297.8}, {1672, 421.1}, {426, 87.2}, {1671, 158.6}, {816, 179.3}, {1035, 197.5},
	{1939, 444.3}, {1142, 266.3}, {864, 218.8}, {1193, 277.8}, {812, 267.6}, {706, 227.6},
	{653, 214.1}, {2145, 397.9}, {1019, 208.7}, {974, 272.5}, {576, 139.4}, {906, 274.0},
	{585, 165.6}, {968, 232.4}, {1108, 296.0}, {1179, 341.2}, {1966, 556.4}, {893, 161.0},
	{1875, 363.5}, {1006, 203.0}, {1042, 268.2}, {1071, 174.9}, {1250, 264.1}, {1169, 294.2},
	{637, 175.5}, {2050, 395.6}, {1356, 301.5}, {408, 72.1}, {1708, 456.3}, {951, 196.0},
	{736, 127.8}, {908, 166.1}, {818, 141.1}, {2163, 406.2}, {763, 128.4}, {626, 101.1},
	{640, 112.2}, {914, 174.6}, {670, 163.7}, {476, 102.8}, {1721, 378.8}, {673, 127.6},
	{1118, 248.4}, {1246, 238.0}, {1599, 333.9}, {2157, 434.6}, {449, 99.3}, {808, 191.4},
	{1766, 355.8}, {420, 108.0}, {1200, 225.2}, {1215, 274.7}, {1692, 302.3}, {1898, 323.3},
	{1504, 331.8}, {824, 192.6}, {579, 110.5}, {598, 103.0}, {1676, 335.1}, {603, 150.1},
	{1251, 323.6}, {774, 167.3}, {798, 202.2}, {1402, 348.4}, {1382, 279.5}, {1048, 209.0},
	{2018, 533.6}, {1349, 299.2}, {722, 158.3}, {1087, 211.9}, {367, 72.6}, {959, 159.3},
	{510, 118.2}, {910, 205.5}, {1927, 298.5}, {1102, 236.2}, {940, 196.8}, {1580, 332.8},
	{1980, 403.8}, {786, 125.6}, {930, 172.2}, {1266, 309.4}, {1725, 367.0}, {3744, 538.3},
	{2001, 330.9}, {985, 200.0}, {1029, 214.5}, {1036, 149.8}, {849, 198.6}, {186, 31.5},
	{487, 98.5}, {1166, 213.6}, {1124, 206.8}, {427, 72.5}, {1739, 289.1}, {544, 87.2},
	{3121, 550.9}, {1024, 214.9}, {1049, 252.2}, {1570, 251.6}, {1767, 382.9}, {590, 109.8},
	{379, 81.0}, {890, 135.6}, {3424, 242.7}, {1021, 155.0}, {946, 157.1}, {1107, 198.3},
	{1286, 195.4}, {2389, 504.8}, {2642, 463.7}, {826, 172.5}, {225, 38.9}, {2319, 474.4},
	{3424, 655.2}, {2934, 422.7}, {2106, 306.5}, {1590, 274.1}, {2483, 470.8}, {402, 67.7},
	{1038, 176.8}, {1321, 253.8}, {866, 174.6}, {1151, 195.0}, {687, 113.5}, {1386, 220.4},
	{785, 132.7}, {191, 25.7}, {2444, 342.6}, {1984, 210.9}, {827, 102.7}, {1264, 278.5},
	{549, 146.1}, {1675, 314.3}, {2862, 277.6}, {621, 126.9}, {1270, 202.6}, {1625, 235.4},
	{552, 79.4}, {2122, 308.0}, {2034, 408.4}, {1792, 361.5}, {1252, 219.6}, {354, 70.4},
	{676, 121.8}, {1685, 317.2}, {1604, 285.9}, {1492, 268.3}, {1314, 236.1}, {1701, 244.8},
	{2392, 399.5}, {1380, 244.9}, {969, 228.2}, {902, 142.2}, {787, 143.0}, {1328, 238.8},
	{1485, 232.5}, {920, 150.7}, {1892, 294.2}, {2567, 496.6}, {1347, 265.1}, {2428, 341.8},
	{2586, 376.0}, {1451, 275.3}, {2520, 466.5}, {1501, 294.3}, {848, 165.7}, {2259, 331.5},
	{1899, 237.8}, {1606, 325.8}, {2519, 449.1}, {2144, 324.7}, {946, 186.8}, {1408, 268.2},
	{976, 156.0}, {1145, 228.0}, {732, 140.9}, {588, 132.7}, {792, 144.0}, {1478, 311.4},
	{2990, 252.2}, {2496, 412.8}, {2102, 418.2}, {1091, 179.7}, {1197, 201.8}, {1408, 280.8},
	{2707, 428.0}, {1745, 337.7}, {2257, 367.9}, {1143, 257.2}, {794, 166.0}, {1917, 376.4},
	{971, 174.2}, {1127, 205.5}, {955, 186.8}, {1247, 248.4}, {1189, 185.6}, {1107, 209.9},
	{1387, 289.4}, {1571, 297.6}, {745, 148.5}, {2176, 362.8}, {4072, 465.8}, {1153, 201.7},
	{714, 140.1}, {1235, 261.5}, {1298, 211.6}, {1913, 318.4}, {886, 122.5}, {2445, 310.8},
	{1677, 312.0}, {1320, 226.1}, {1390, 252.1}, {2056, 362.2}, {1528, 289.6}, {927, 124.4},
	{951, 171.4}, {359, 67.9}, {1008, 180.6}, {772, 147.2}, {1848, 340.0}, {2113, 274.7},
	{2111, 312.1}, {2297, 458.8},
}

var diffCosts = []blockCost{
	{600, 81.6}, {563, 104.4}, {476, 89.0}, {536, 89.2}, {703, 111.7}, {585, 94.5},
	{702, 96.4}, {589, 79.8}, {755, 104.3}, {769, 104.6}, {754, 100.0}, {843, 108.3},
	{767, 98.0}, {661, 88.6}, {684, 95.9}, {624, 89.1}, {640, 87.2}, {647, 97.3},
	{708, 97.5}, {776, 104.0}, {860, 113.3}, {650, 86.0}, {742, 96.2}, {765, 101.3},
	{655, 85.7}, {642, 83.3}, {725, 93.4}, {502, 78.1}, {564, 88.7}, {575, 101.3},
	{506, 85.6}, {766, 117.7}, {594, 87.6}, {549, 82.1}, {475, 81.4}, {813, 123.6},
	{512, 78.6}, {707, 96.4}, {783, 94.9}, {687, 88.1}, {709, 90.3}, {721, 86.6},
	{782, 96.8}, {814, 102.4}, {809, 103.4}, {728, 88.1}, {734, 92.7}, {614, 77.0},
	{745, 92.1}, {868, 111.4}, {819, 101.8}, {629, 81.9}, {722, 91.7}, {601, 92.2},
	{445, 65.1}, {533, 92.2}, {730, 116.0}, {521, 83.6}, {601, 98.0}, {796, 121.8},
	{641, 105.9}, {663, 106.3}, {698, 101.8}, {660, 93.8}, {710, 100.5}, {509, 75.3},
	{749, 109.3}, {603, 94.7}, {761, 109.7}, {657, 102.3}, {1015, 155.1}, {872, 108.4},
	{703, 87.2}, {788, 108.9}, {494, 82.7}, {519, 79.3}, {631, 80.6}, {737, 98.1},
	{738, 102.2}, {705, 105.2}, {618, 83.0}, {760, 110.0}, {640, 96.0}, {809, 128.2},
	{642, 96.8}, {460, 77.7}, {492, 83.3}, {549, 86.8}, {760, 126.5}, {674, 102.9},
	{636, 92.0}, {622, 84.2}, {836, 105.4}, {898, 120.3}, {723, 98.0}, {609, 78.5},
	{760, 107.6}, {596, 90.2}, {656, 88.9}, {690, 86.9}, {748, 94.4}, {872, 107.3},
	{559, 76.5}, {648, 100.0}, {532, 87.9}, {575, 92.5}, {801, 110.4}, {650, 94.3},
	{689, 103.1}, {642, 92.4}, {708, 98.6}, {785, 101.8}, {896, 112.2}, {667, 98.1},
	{849, 102.9}, {913, 97.3}, {690, 84.1}, {723, 89.2}, {840, 106.4}, {672, 91.6},
}
