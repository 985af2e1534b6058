// Unit tests for the observability layer: log-bucketed latency histograms,
// the binary event tracer (wire format, ring flushing, digest), and the
// metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace gms {
namespace {

// --------------------------------------------------------------------------
// LatencyHistogram
// --------------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 4; v++) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v)) << v;
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundsBracketTheirValues) {
  Rng rng(11);
  for (int i = 0; i < 20000; i++) {
    const uint64_t v = rng.NextBelow(1ULL << 50) + 1;
    const int idx = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LatencyHistogram::kNumBuckets);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v);
    if (idx + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_GT(LatencyHistogram::BucketLowerBound(idx + 1), v);
    }
  }
}

TEST(LatencyHistogramTest, QuarterOctaveWidth) {
  // Above the exact range, each bucket's width is 1/4 of its power of two,
  // so the half-width is at most 12.5% of the lower bound.
  for (int idx = 8; idx + 1 < LatencyHistogram::kNumBuckets; idx++) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(idx);
    const uint64_t hi = LatencyHistogram::BucketLowerBound(idx + 1);
    ASSERT_GT(hi, lo) << idx;
    EXPECT_LE(static_cast<double>(hi - lo), 0.25 * static_cast<double>(lo))
        << "bucket " << idx << " wider than a quarter octave";
  }
}

TEST(LatencyHistogramTest, QuantileWithinRelativeErrorBound) {
  LatencyHistogram hist;
  std::vector<uint64_t> samples;
  Rng rng(3);
  for (int i = 0; i < 50000; i++) {
    // Latency-like mixture spanning ns..s scales.
    const uint64_t v = 1 + rng.NextBelow(1ULL << (10 + i % 5 * 7));
    samples.push_back(v);
    hist.Record(static_cast<SimTime>(v));
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    const double exact =
        static_cast<double>(samples[std::min(rank, samples.size() - 1)]);
    const double est = static_cast<double>(hist.Quantile(q));
    EXPECT_NEAR(est, exact, 0.125 * exact + 2.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LatencyHistogramTest, MergeEqualsConcatenation) {
  LatencyHistogram a, b, both;
  Rng rng(7);
  for (int i = 0; i < 3000; i++) {
    const auto v = static_cast<SimTime>(rng.NextBelow(1ULL << 36));
    (i % 2 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (int i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    EXPECT_EQ(a.bucket(i), both.bucket(i)) << i;
  }
  EXPECT_EQ(a.Quantile(0.5), both.Quantile(0.5));
}

TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), 0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SingleSampleIsEveryQuantile) {
  LatencyHistogram hist;
  hist.Record(Microseconds(7));
  const SimTime estimate = hist.Quantile(0.5);
  // One sample: every quantile is that sample's bucket estimate, within the
  // quarter-octave bucket resolution.
  EXPECT_NEAR(static_cast<double>(estimate),
              static_cast<double>(Microseconds(7)),
              0.13 * static_cast<double>(Microseconds(7)));
  for (double q : {0.0, 0.01, 0.99, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), estimate) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, OverflowBucketSaturatesInsteadOfIndexingOut) {
  LatencyHistogram hist;
  // Values beyond the last bucket's lower bound all land in the top bucket.
  const uint64_t top = LatencyHistogram::BucketLowerBound(
      LatencyHistogram::kNumBuckets - 1);
  hist.Record(static_cast<SimTime>(top));
  hist.Record(INT64_MAX);
  EXPECT_EQ(LatencyHistogram::BucketIndex(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(hist.bucket(LatencyHistogram::kNumBuckets - 1), 2u);
  // Quantiles of a saturated histogram report the top bucket's lower bound
  // (the estimate cannot exceed the representable range).
  EXPECT_GE(hist.Quantile(0.99), static_cast<SimTime>(top));
}

TEST(LatencyHistogramTest, ResetAndNegativeClamp) {
  LatencyHistogram hist;
  hist.Record(-5);  // clamps to bucket 0 rather than indexing off the array
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.bucket(0), 1u);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0);
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

std::vector<TraceRecord> ReadTraceFile(const std::string& path,
                                       TraceFileHeader* header) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  EXPECT_EQ(std::fread(header, sizeof(*header), 1, f), 1u);
  std::vector<TraceRecord> records;
  TraceRecord rec;
  while (std::fread(&rec, sizeof(rec), 1, f) == 1) {
    records.push_back(rec);
  }
  std::fclose(f);
  return records;
}

// Mirrors Tracer::digest(): hash each node's record stream independently,
// then fold the per-node (fnv1a, records) pairs in node order.
TraceDigest FoldedDigest(const std::vector<TraceRecord>& records,
                         uint32_t num_nodes) {
  std::vector<TraceDigest> per_node(num_nodes);
  for (const TraceRecord& rec : records) {
    per_node[rec.node].Update(&rec, 1);
  }
  TraceDigest out;
  uint64_t h = out.fnv1a;
  for (const TraceDigest& d : per_node) {
    const uint64_t pair[2] = {d.fnv1a, d.records};
    const auto* bytes = reinterpret_cast<const unsigned char*>(pair);
    for (size_t i = 0; i < sizeof(pair); i++) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
    out.records += d.records;
  }
  out.fnv1a = h;
  return out;
}

TEST(TracerTest, RecordsRoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/obs_roundtrip.trc";
  Tracer tracer(/*num_nodes=*/2, /*ring_capacity=*/8);
  ASSERT_TRUE(tracer.OpenFile(path));
  tracer.set_enabled(true);
  TraceEvent(&tracer, Microseconds(5), NodeId{0}, TraceEventKind::kFault,
             Uid{0xAAAA, 0xBBBB}, 1);
  TraceEventRaw(&tracer, Microseconds(7), NodeId{1}, TraceEventKind::kNetSend,
                /*a=*/0, /*b=*/3, /*value=*/8192);
  tracer.Finish();

  TraceFileHeader header{};
  const std::vector<TraceRecord> records = ReadTraceFile(path, &header);
  EXPECT_EQ(std::memcmp(header.magic, kTraceMagic, 8), 0);
  EXPECT_EQ(header.version, kTraceVersion);
  EXPECT_EQ(header.record_size, sizeof(TraceRecord));
  EXPECT_EQ(header.num_nodes, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].time, Microseconds(5));
  EXPECT_EQ(records[0].a, 0xAAAAu);
  EXPECT_EQ(records[0].b, 0xBBBBu);
  EXPECT_EQ(records[0].value, 1u);
  EXPECT_EQ(records[0].node, 0u);
  EXPECT_EQ(records[0].kind, static_cast<uint16_t>(TraceEventKind::kFault));
  EXPECT_EQ(records[1].value, 8192u);
  EXPECT_EQ(records[1].node, 1u);

  // The digest is the per-node fold over exactly the flushed record bytes.
  EXPECT_EQ(tracer.digest(), FoldedDigest(records, header.num_nodes));
  EXPECT_EQ(tracer.digest().records, 2u);
  std::remove(path.c_str());
}

TEST(TracerTest, FullRingFlushesAndKeepsRecording) {
  Tracer tracer(1, /*ring_capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 11; i++) {
    TraceEventRaw(&tracer, i, NodeId{0}, TraceEventKind::kLocalHit, 0, 0,
                  static_cast<uint64_t>(i));
  }
  // 8 records flushed by two full rings; 3 still buffered.
  EXPECT_EQ(tracer.digest().records, 8u);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 11u);
}

TEST(TracerTest, DigestIndependentOfRingCapacityForOneNode) {
  // With a single ring the flush order is the record order no matter when
  // flushes happen, so capacity must not leak into the digest.
  auto run = [](size_t capacity) {
    Tracer tracer(1, capacity);
    tracer.set_enabled(true);
    for (int i = 0; i < 1000; i++) {
      TraceEventRaw(&tracer, i, NodeId{0}, TraceEventKind::kDiskRead, 1, 2,
                    static_cast<uint64_t>(i) * 3);
    }
    tracer.Flush();
    return tracer.digest().ToString();
  };
  EXPECT_EQ(run(3), run(4096));
}

TEST(TracerTest, ValueSaturatesAt32Bits) {
  Tracer tracer(1, 8);
  tracer.set_enabled(true);
  TraceEventRaw(&tracer, 0, NodeId{0}, TraceEventKind::kFaultDone, 0, 0,
                UINT64_MAX);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 1u);
  // Reconstruct what was digested: a saturated value.
  TraceRecord rec{0, 0, 0, UINT32_MAX, 0,
                  static_cast<uint16_t>(TraceEventKind::kFaultDone)};
  EXPECT_EQ(tracer.digest(), FoldedDigest({rec}, 1));
}

TEST(TracerTest, DisabledAndNullAndOutOfRangeRecordNothing) {
  Tracer tracer(1, 8);
  // Runtime-disabled.
  TraceEventRaw(&tracer, 0, NodeId{0}, TraceEventKind::kFault, 0, 0, 0);
  // Null tracer: must be safe everywhere a subsystem is unwired.
  TraceEventRaw(nullptr, 0, NodeId{0}, TraceEventKind::kFault, 0, 0, 0);
  tracer.set_enabled(true);
  // Out-of-range node (e.g. kInvalidNode from an unlabelled disk): dropped.
  TraceEventRaw(&tracer, 0, kInvalidNode, TraceEventKind::kFault, 0, 0, 0);
  TraceEventRaw(&tracer, 0, NodeId{5}, TraceEventKind::kFault, 0, 0, 0);
  tracer.Flush();
  EXPECT_EQ(tracer.digest().records, 0u);
}

TEST(TracerTest, DigestStringFormat) {
  TraceDigest digest;
  const std::string s = digest.ToString();
  EXPECT_EQ(s.substr(0, 6), "fnv1a:");
  EXPECT_EQ(s, "fnv1a:cbf29ce484222325:0");  // FNV offset basis, no records
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistersAllKindsAndRejectsDuplicates) {
  MetricsRegistry reg;
  uint64_t value = 41;
  Counter counter;
  StatAccumulator stat;
  LatencyHistogram hist;
  EXPECT_TRUE(reg.RegisterValue("a/value", [&] { return value; }));
  EXPECT_TRUE(reg.RegisterCounter("a/counter", [&] { return &counter; }));
  EXPECT_TRUE(reg.RegisterStat("b/stat", [&] { return &stat; }));
  EXPECT_TRUE(reg.RegisterLatency("b/lat", [&] { return &hist; }));
  EXPECT_FALSE(reg.RegisterValue("a/value", [&] { return value; }))
      << "duplicate names must be rejected";
  EXPECT_EQ(reg.size(), 4u);

  counter.Add(100);
  counter.Add(50);
  stat.Add(2.0);
  hist.Record(1000);
  hist.Record(2000);
  hist.Record(4000);
  value = 42;

  EXPECT_EQ(reg.Value("a/value"), 42u);
  EXPECT_EQ(reg.Value("a/counter"), 2u);  // events, not bytes
  EXPECT_EQ(reg.Value("b/stat"), 1u);
  EXPECT_EQ(reg.Value("b/lat"), 3u);
  EXPECT_EQ(reg.Value("nope"), std::nullopt);
  EXPECT_EQ(reg.KindOf("b/lat"), MetricsRegistry::Kind::kLatency);
  EXPECT_EQ(reg.KindOf("nope"), std::nullopt);
}

TEST(MetricsRegistryTest, SnapshotSeriesTracksCumulativeValues) {
  MetricsRegistry reg;
  uint64_t v = 0;
  reg.RegisterValue("v", [&] { return v; });
  v = 10;
  reg.SnapshotEpoch(Milliseconds(1));
  v = 25;
  reg.SnapshotEpoch(Milliseconds(2));
  ASSERT_EQ(reg.snapshots().size(), 2u);
  EXPECT_EQ(reg.snapshots()[0].time, Milliseconds(1));
  EXPECT_EQ(reg.snapshots()[0].values, std::vector<uint64_t>{10});
  EXPECT_EQ(reg.snapshots()[1].values, std::vector<uint64_t>{25});
  reg.ClearSnapshots();
  EXPECT_TRUE(reg.snapshots().empty());
}

TEST(MetricsRegistryTest, GetterIndirectionSurvivesObjectReplacement) {
  // The cluster registers getters, not pointers, precisely so a rebooted
  // node's fresh stats object is picked up. Model that here.
  MetricsRegistry reg;
  auto stats = std::make_unique<Counter>();
  Counter* live = stats.get();
  Counter** slot = &live;
  reg.RegisterCounter("svc", [slot] { return *slot; });
  stats->Add(1);
  EXPECT_EQ(reg.Value("svc"), 1u);
  auto fresh = std::make_unique<Counter>();  // "reboot"
  live = fresh.get();
  EXPECT_EQ(reg.Value("svc"), 0u);
}

TEST(MetricsRegistryTest, ToJsonContainsSchemaMetricsAndSnapshots) {
  MetricsRegistry reg;
  Counter counter;
  counter.Add(64);
  StatAccumulator stat;
  stat.Add(1.5);
  stat.Add(2.5);
  LatencyHistogram hist;
  hist.Record(Microseconds(100));
  reg.RegisterCounter("net/total", [&] { return &counter; });
  reg.RegisterStat("os/access_us", [&] { return &stat; });
  reg.RegisterLatency("os/fault_ns", [&] { return &hist; });
  reg.SnapshotEpoch(Milliseconds(3));

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"net/total\""), std::string::npos);
  EXPECT_NE(json.find("\"os/access_us\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"times_ns\""), std::string::npos);
  // Balanced braces: cheap structural sanity (CI parses it with Python).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistryTest, ToJsonIsByteIdenticalAndRegistrationOrderFree) {
  // The JSON is sorted by metric name at serialization time, so two
  // registries holding the same metrics must serialize byte-identically no
  // matter the order their subsystems registered in (CI diffs these files).
  Counter counter;
  counter.Add(64);
  uint64_t v = 9;
  auto build = [&](bool reversed) {
    auto reg = std::make_unique<MetricsRegistry>();
    if (reversed) {
      reg->RegisterValue("z/value", [&] { return v; });
      reg->RegisterCounter("a/counter", [&] { return &counter; });
    } else {
      reg->RegisterCounter("a/counter", [&] { return &counter; });
      reg->RegisterValue("z/value", [&] { return v; });
    }
    reg->SnapshotEpoch(Milliseconds(5));
    return reg;
  };
  const std::string fwd = build(false)->ToJson();
  const std::string rev = build(true)->ToJson();
  EXPECT_EQ(fwd, rev) << "registration order leaked into the JSON";
  EXPECT_EQ(fwd, build(false)->ToJson()) << "repeat serialization differed";
  // Sorted order: "a/counter" text appears before "z/value" in both the
  // metrics map and the snapshot series.
  EXPECT_LT(fwd.find("\"a/counter\""), fwd.find("\"z/value\""));
}

TEST(MetricsRegistryTest, ToJsonEscapesHostileMetricNames) {
  // Names come from code today, but the serializer must not depend on that:
  // quotes, backslashes, and control characters all have to survive.
  MetricsRegistry reg;
  uint64_t v = 1;
  ASSERT_TRUE(reg.RegisterValue("weird\"name\\with\tctl", [&] { return v; }));
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\u0009ctl\""),
            std::string::npos)
      << json;
  // The raw (unescaped) byte sequence must not appear anywhere.
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

// A random metric name over an alphabet that includes the characters the
// JSON serializer has to escape. Short names over a small alphabet make
// duplicates common.
std::string RandomMetricName(Rng& rng) {
  static constexpr char kAlphabet[] = "ab/\"\\\t\n\x01z0";
  const size_t len = rng.NextBelow(5);
  std::string name;
  for (size_t i = 0; i < len; i++) {
    name.push_back(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
  }
  return name;
}

TEST(MetricsRegistryTest, HashedIndexMatchesLinearReference) {
  // The name index must answer exactly what a linear scan over the
  // registration-order list answers: same accept/reject decisions, same
  // indices, across every growth of the table (16 slots up to thousands).
  Rng rng(77);
  MetricsRegistry reg;
  std::vector<std::string> ref;
  auto ref_index = [&](const std::string& name) {
    const auto it = std::find(ref.begin(), ref.end(), name);
    return it == ref.end() ? MetricsRegistry::kInvalidIndex
                           : static_cast<size_t>(it - ref.begin());
  };
  size_t duplicates = 0;
  for (int i = 0; i < 6000; i++) {
    const std::string name = RandomMetricName(rng);
    const bool fresh = ref_index(name) == MetricsRegistry::kInvalidIndex;
    const uint64_t pos = ref.size();
    ASSERT_EQ(reg.RegisterValue(name, [pos] { return pos; }), fresh)
        << "registration " << i;
    if (fresh) {
      ref.push_back(name);
    } else {
      duplicates++;
    }
    ASSERT_EQ(reg.size(), ref.size());
    if (i % 500 == 0 || i == 5999) {
      for (size_t k = 0; k < ref.size(); k++) {
        ASSERT_EQ(reg.IndexOf(ref[k]), k);
        ASSERT_EQ(reg.name(k), ref[k]);
        ASSERT_EQ(reg.Value(ref[k]), k);
      }
      for (int p = 0; p < 50; p++) {
        const std::string probe = RandomMetricName(rng) + "#";
        ASSERT_EQ(reg.IndexOf(probe), ref_index(probe));
        ASSERT_EQ(reg.Value(probe), std::nullopt);
      }
    }
  }
  EXPECT_GT(duplicates, 100u) << "the generator should produce duplicates";
  EXPECT_GT(ref.size(), 1000u) << "the table should grow several times";
}

TEST(MetricsRegistryTest, IndexOfIsStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  uint64_t v = 0;
  ASSERT_TRUE(reg.RegisterValue("node0/svc/epoch", [&] { return v; }));
  ASSERT_TRUE(reg.RegisterValue("node0/os/faults", [&] { return v; }));
  const size_t epoch = reg.IndexOf("node0/svc/epoch");
  const size_t faults = reg.IndexOf("node0/os/faults");
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(faults, 1u);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(reg.RegisterValue("later/" + std::to_string(i),
                                  [&] { return v; }));
  }
  EXPECT_FALSE(reg.RegisterValue("node0/os/faults", [&] { return v; }));
  EXPECT_EQ(reg.IndexOf("node0/svc/epoch"), epoch);
  EXPECT_EQ(reg.IndexOf("node0/os/faults"), faults);
  EXPECT_EQ(reg.IndexOf("later/999"), 1001u);
  EXPECT_EQ(reg.name(epoch), "node0/svc/epoch");
}

TEST(MetricsRegistryTest, UnknownNamesGiveNullopt) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Value("missing"), std::nullopt);
  EXPECT_EQ(reg.KindOf("missing"), std::nullopt);
  EXPECT_EQ(reg.IndexOf("missing"), MetricsRegistry::kInvalidIndex);
  uint64_t v = 3;
  ASSERT_TRUE(reg.RegisterValue("present", [&] { return v; }));
  EXPECT_EQ(reg.Value("presen"), std::nullopt);
  EXPECT_EQ(reg.Value("present/"), std::nullopt);
  EXPECT_EQ(reg.KindOf(""), std::nullopt);
  EXPECT_EQ(reg.Value("present"), 3u);
  EXPECT_EQ(reg.KindOf("present"), MetricsRegistry::Kind::kValue);
}

TEST(MetricsRegistryTest, ToJsonMatchesPinnedExport) {
  // Pinned from the linear-scan registry this index replaced: the export
  // format, the sorted key order and the escaping must not move.
  uint64_t v = 7;
  Counter counter;
  counter.Add(64);
  counter.Add(32);
  StatAccumulator stat;
  stat.Add(1.5);
  stat.Add(2.5);
  LatencyHistogram hist;
  hist.Record(Microseconds(100));
  hist.Record(Microseconds(300));
  MetricsRegistry reg;
  ASSERT_TRUE(reg.RegisterValue("z/value", [&] { return v; }));
  ASSERT_TRUE(reg.RegisterCounter("net/total", [&] { return &counter; }));
  ASSERT_TRUE(reg.RegisterStat("os/access_us", [&] { return &stat; }));
  ASSERT_TRUE(reg.RegisterLatency("os/fault_ns", [&] { return &hist; }));
  ASSERT_TRUE(reg.RegisterValue("q\"b\\c\x01", [&] { return v; }));
  ASSERT_FALSE(reg.RegisterValue("net/total", [&] { return v; }));
  reg.SnapshotEpoch(Milliseconds(1));
  v = 9;
  counter.Add(8);
  reg.SnapshotEpoch(Milliseconds(2));
  const char* const kPinned = R"({
  "schema": 1,
  "metrics": {
    "net/total": {"type": "counter", "events": 3, "bytes": 104},
    "os/access_us": {"type": "stat", "count": 2, "mean": 2, "stddev": 0.707107, "min": 1.5, "max": 2.5},
    "os/fault_ns": {"type": "latency", "count": 2, "p50_ns": 106496, "p95_ns": 294912, "p99_ns": 294912},
    "q\"b\\c\u0001": {"type": "value", "value": 9},
    "z/value": {"type": "value", "value": 9}
  },
  "snapshots": {
    "times_ns": [1000000, 2000000],
    "series": {
      "net/total": [2, 3],
      "os/access_us": [2, 2],
      "os/fault_ns": [2, 2],
      "q\"b\\c\u0001": [7, 9],
      "z/value": [7, 9]
    }
  }
}
)";
  EXPECT_EQ(reg.ToJson(), kPinned);
}

}  // namespace
}  // namespace gms
