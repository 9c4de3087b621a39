// Tests for the benchmark's own code: percentiles, metric names, JSON
// output, trace spans, the correctness oracles, and workload repeatability.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace ledger;

// ---- A strict JSON reader (RFC 8259 grammar), enough to check output. ----

struct Json {
    enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    [[nodiscard]] const Json& at(const std::string& key) const {
        for (const auto& [k, v] : object) {
            if (k == key) return v;
        }
        throw std::out_of_range("no key " + key);
    }
};

class JsonReader {
  public:
    explicit JsonReader(std::string_view text) : s_(text) {}

    Json parse() {
        Json v = value();
        ws();
        if (i_ != s_.size()) fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json: " + what + " at offset " + std::to_string(i_));
    }
    void ws() {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r')) ++i_;
    }
    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++i_;
    }
    bool literal(std::string_view word) {
        if (s_.substr(i_, word.size()) != word) return false;
        i_ += word.size();
        return true;
    }
    static bool digit(char c) { return c >= '0' && c <= '9'; }

    Json value() {
        ws();
        Json v;
        const char c = peek();
        if (c == '{') {
            v.kind = Json::Kind::Object;
            ++i_;
            ws();
            if (peek() == '}') {
                ++i_;
                return v;
            }
            for (;;) {
                ws();
                std::string key = string();
                ws();
                expect(':');
                v.object.emplace_back(std::move(key), value());
                ws();
                if (peek() == ',') {
                    ++i_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            v.kind = Json::Kind::Array;
            ++i_;
            ws();
            if (peek() == ']') {
                ++i_;
                return v;
            }
            for (;;) {
                v.array.push_back(value());
                ws();
                if (peek() == ',') {
                    ++i_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.kind = Json::Kind::String;
            v.string = string();
            return v;
        }
        if (literal("true") || literal("false")) {
            v.kind = Json::Kind::Bool;
            v.boolean = s_[i_ - 1] == 'e' && s_[i_ - 2] == 'u';
            return v;
        }
        if (literal("null")) return v;
        v.kind = Json::Kind::Number;
        v.number = number();
        return v;
    }

    std::string string() {
        expect('"');
        std::string out;
        while (peek() != '"') {
            if (i_ >= s_.size() || static_cast<unsigned char>(s_[i_]) < 0x20) fail("bad string");
            if (s_[i_] == '\\') {
                ++i_;
                const char e = peek();
                if (e == 'u') {
                    for (int k = 1; k <= 4; ++k) {
                        if (!std::isxdigit(static_cast<unsigned char>(s_.at(i_ + k)))) fail("bad \\u");
                    }
                    i_ += 5;
                    out += '?';
                    continue;
                }
                switch (e) {
                    case '"': case '\\': case '/': out += e; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    default: fail("bad escape");
                }
                ++i_;
                continue;
            }
            out += s_[i_++];
        }
        ++i_;
        return out;
    }

    double number() {
        const std::size_t start = i_;
        if (peek() == '-') ++i_;
        if (peek() == '0') {
            ++i_;
        } else if (digit(peek())) {
            while (digit(peek())) ++i_;
        } else {
            fail("bad number");
        }
        if (peek() == '.') {
            ++i_;
            if (!digit(peek())) fail("bad fraction");
            while (digit(peek())) ++i_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++i_;
            if (peek() == '+' || peek() == '-') ++i_;
            if (!digit(peek())) fail("bad exponent");
            while (digit(peek())) ++i_;
        }
        return std::strtod(std::string(s_.substr(start, i_ - start)).c_str(), nullptr);
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

Json parse_json(const std::string& text) { return JsonReader(text).parse(); }

// ---- Percentiles. ----

TEST(Percentiles, NearestRankPicksTheSampleAtTheCeilingRank) {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
    EXPECT_EQ(nearest_rank(v, 50), 50);
    EXPECT_EQ(nearest_rank(v, 99), 99);
    EXPECT_EQ(nearest_rank(v, 100), 100);
    EXPECT_EQ(nearest_rank(v, 0.1), 1);
    EXPECT_EQ(nearest_rank({4.0, 1.0, 3.0, 2.0}, 50), 2.0);  // rank ceil(2) = 2
    EXPECT_EQ(nearest_rank({4.0, 1.0, 3.0, 2.0}, 51), 3.0);  // rank ceil(2.04) = 3
    EXPECT_EQ(nearest_rank({7.5}, 99), 7.5);
    EXPECT_EQ(nearest_rank({}, 50), 0.0);
}

TEST(Percentiles, WindowedPercentileIgnoresOneBadWindow) {
    std::vector<double> v;
    for (int w = 0; w < 5; ++w) {
        for (int i = 1; i <= 1000; ++i) v.push_back(w == 2 ? 1000.0 * i : i);
    }
    EXPECT_EQ(nearest_rank(v, 99), 950000.0);      // the hiccup owns the run's p99
    EXPECT_EQ(windowed_percentile(v, 99), 990.0);  // but only one of five windows
}

TEST(Percentiles, FewSamplesMakeOneWindow) {
    std::vector<double> v;
    for (int i = 1; i <= 1999; ++i) v.push_back(i);
    EXPECT_EQ(windowed_percentile(v, 99), nearest_rank(v, 99));
    EXPECT_EQ(windowed_percentile({3.0, 1.0, 2.0}, 50), 2.0);
    EXPECT_EQ(windowed_percentile({}, 99), 0.0);
}

TEST(Percentiles, WindowsCoverEverySampleWithAtLeastTheWindowSize) {
    // 2999 samples -> two windows of 1499 and 1500; each window's maximum
    // is its last sample.
    std::vector<double> v;
    for (int i = 1; i <= 2999; ++i) v.push_back(i);
    EXPECT_EQ(windowed_percentile(v, 100, 1000), 1499.0);
}

// ---- Metric names and the result line. ----

TEST(Metrics, NamesMatchTheAllowedPattern) {
    EXPECT_TRUE(valid_metric_name("latency_p50_ms"));
    EXPECT_TRUE(valid_metric_name("core.phase1_wall_ms"));
    EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
    EXPECT_FALSE(valid_metric_name(""));
    EXPECT_FALSE(valid_metric_name("_hidden"));
    EXPECT_FALSE(valid_metric_name(".dot"));
    EXPECT_FALSE(valid_metric_name("has space"));
    EXPECT_FALSE(valid_metric_name("slash/name"));
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
    EXPECT_TRUE(valid_metric_unit("Melem/s"));
    EXPECT_TRUE(valid_metric_unit("%"));
    EXPECT_FALSE(valid_metric_unit("way-too-long-unit-name"));
    EXPECT_FALSE(valid_metric_unit(""));
}

TEST(Metrics, EveryEmittedMetricIsValidAndUnique) {
    for (const MetricList& list : {EndToEnd{}.to_metrics(), LayerMetrics{}.to_metrics()}) {
        std::set<std::string> seen;
        for (const auto& m : list) {
            EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
            EXPECT_TRUE(valid_metric_unit(m.unit)) << m.name << " " << m.unit;
            EXPECT_TRUE(seen.insert(m.name).second) << "repeated " << m.name;
        }
    }
}

TEST(Metrics, ResultLineParsesWithExactlyTheFourKeys) {
    const MetricList metrics{{"a", 1.0 / 3.0, "ms"}, {"b.c", 1e-300, "s"}, {"d", 12345678.9, "%"}};
    const Json j = parse_json(result_json(true, 10, 0, metrics));
    ASSERT_EQ(j.object.size(), 4u);
    EXPECT_TRUE(j.at("correct").boolean);
    EXPECT_EQ(j.at("attempted").number, 10);
    EXPECT_EQ(j.at("failed").number, 0);
    const Json& m = j.at("metrics");
    ASSERT_EQ(m.object.size(), 3u);
    EXPECT_EQ(m.at("a").at("value").number, 1.0 / 3.0);  // every digit survives
    EXPECT_EQ(m.at("b.c").at("value").number, 1e-300);
    EXPECT_EQ(m.at("d").at("unit").string, "%");
}

TEST(Metrics, ResultLineRejectsWhatJsonCannotHold) {
    EXPECT_THROW((void)result_json(true, 1, 0, {{"x", std::nan(""), "ms"}}), std::invalid_argument);
    EXPECT_THROW((void)result_json(true, 1, 0, {{"x", HUGE_VAL, "ms"}}), std::invalid_argument);
    EXPECT_THROW((void)result_json(true, 1, 0, {{"x", 1, "ms"}, {"x", 2, "ms"}}),
                 std::invalid_argument);
    EXPECT_THROW((void)result_json(true, 1, 0, {{"bad name", 1, "ms"}}), std::invalid_argument);
}

TEST(Metrics, JsonStringEscapes) {
    const std::string raw = "q\"b\\n\nt\tc\x01";
    EXPECT_EQ(parse_json(json_string(raw)).string, "q\"b\\n\nt\tc?");
}

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return f ? ss.str() : std::string();
}

// The benchmark's declared metrics are the ones the program prints.
TEST(Metrics, BenchmarkJsonDeclaresExactlyTheEmittedMetrics) {
    const std::string text = read_file(std::string(LEDGER_REPO_ROOT) + "/BENCHMARK.json");
    if (text.empty()) GTEST_SKIP() << "no BENCHMARK.json next to the benchmark";
    const Json bench = parse_json(text);
    const auto names = [](const Json& list) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto& m : list.array) out.emplace_back(m.at("name").string, m.at("unit").string);
        return out;
    };
    const auto emitted = [](const MetricList& list) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto& m : list) out.emplace_back(m.name, m.unit);
        return out;
    };
    EXPECT_EQ(names(bench.at("end_to_end")), emitted(EndToEnd{}.to_metrics()));
    EXPECT_EQ(names(bench.at("per_layer")), emitted(LayerMetrics{}.to_metrics()));
    // Every gated workload runs; serve_small runs by name but is not gated.
    std::vector<std::string> ungated = workload_names();
    for (const auto& w : bench.at("workloads").array) {
        const auto it = std::find(ungated.begin(), ungated.end(), w.at("name").string);
        ASSERT_NE(it, ungated.end()) << w.at("name").string;
        ungated.erase(it);
    }
    EXPECT_EQ(ungated, std::vector<std::string>{"serve_small"});
}

// Every per-layer metric names its layer and the end-to-end metrics (on
// named workloads) it should move.
TEST(Metrics, LayerMapCoversEveryPerLayerMetric) {
    const Json map = parse_json(read_file(std::string(LEDGER_SOURCE_DIR) + "/layer_map.json"));
    std::vector<std::string> mapped;
    for (const auto& [name, entry] : map.at("metrics").object) {
        mapped.push_back(name);
        EXPECT_FALSE(entry.at("layer").string.empty()) << name;
        for (const auto& target : entry.at("moves").array) {
            const auto at = target.string.find('@');
            ASSERT_NE(at, std::string::npos) << name << ": " << target.string;
            const std::string metric = target.string.substr(0, at);
            const std::string workload = target.string.substr(at + 1);
            bool known = metric == "latency_p99_ms";
            for (const auto& m : EndToEnd{}.to_metrics()) known = known || m.name == metric;
            EXPECT_TRUE(known) << name << " -> " << metric;
            const auto& names = workload_names();
            EXPECT_NE(std::find(names.begin(), names.end(), workload), names.end())
                << name << " -> " << workload;
        }
    }
    std::vector<std::string> emitted;
    for (const auto& m : LayerMetrics{}.to_metrics()) emitted.push_back(m.name);
    EXPECT_EQ(mapped, emitted);
}

// ---- Trace spans. ----

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
    Tracer t(true);
    const auto req = t.add("request", 0, 100, 1);
    t.add("submit", 10, 20, 1, req);
    t.add("queue", 10, 50, 1, req);  // overlaps submit
    t.add("service", 50, 90, 1, req);
    const auto self = t.self_ms();
    EXPECT_DOUBLE_EQ(self.at("request"), 20.0 / 1e3);  // 100 - |[10, 90)|
    EXPECT_DOUBLE_EQ(self.at("queue"), 40.0 / 1e3);
    EXPECT_EQ(t.nesting_violations(), 0u);
    t.add("service", 95, 120, 1, req);  // escapes its parent
    EXPECT_EQ(t.nesting_violations(), 1u);
}

TEST(Trace, AnOverrunIsReportedAsMeasuredAndOnlyTheJsonClipsIt) {
    Tracer t(true);
    const auto req = t.add("request", 0, 100, 1);
    t.add("queue", 10, 100.5, 1, req);  // within the clock tolerance
    EXPECT_EQ(t.nesting_violations(), 0u);
    t.add("service", 100.5, 140, 1, req);  // a service end the observer never saw
    EXPECT_EQ(t.nesting_violations(), 1u);
    EXPECT_EQ(t.spans().back().end_us, 140);  // kept as measured
    t.add("request", 200, 150, 2);  // ends before it starts
    EXPECT_EQ(t.nesting_violations(), 2u);

    const Json j = parse_json(t.chrome_json("{}"));
    const auto& ev = j.at("traceEvents").array;
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev[1].at("dur").number, 90);  // clipped to the request's end
    EXPECT_EQ(ev[2].at("ts").number, 100);
    EXPECT_EQ(ev[2].at("dur").number, 0);
    EXPECT_EQ(ev[3].at("dur").number, 0);
}

TEST(Trace, OffRecordsNothing) {
    Tracer t(false);
    EXPECT_EQ(t.add("request", 0, 1, 1), Span::kNoParent);
    EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, ChromeJsonParsesAndOverlappingRootsGetSeparateLanes) {
    Tracer t(true);
    const auto a = t.add("request", 0, 100, 1);
    t.add("submit", 0, 5, 1, a);
    const auto b = t.add("request", 50, 150, 2);  // overlaps a
    t.add("submit", 50, 55, 2, b);
    t.add("request", 120, 130, 3);  // a's lane is free again
    const Json j = parse_json(t.chrome_json("{\"seed\": 1}"));
    EXPECT_EQ(j.at("otherData").at("seed").number, 1);
    const auto& ev = j.at("traceEvents").array;
    ASSERT_EQ(ev.size(), 5u);
    EXPECT_EQ(ev[0].at("ph").string, "X");
    EXPECT_EQ(ev[0].at("tid").number, ev[1].at("tid").number);  // child shares its lane
    EXPECT_NE(ev[0].at("tid").number, ev[2].at("tid").number);
    EXPECT_EQ(ev[4].at("tid").number, ev[0].at("tid").number);
    EXPECT_EQ(ev[2].at("dur").number, 100);
}

// ---- Oracles. ----

TEST(Oracle, SortedRowsAndRaggedMatchStdSort) {
    const std::vector<float> v{3, 1, 2, 9, 8, 7};
    EXPECT_EQ(sorted_rows(v, 3), (std::vector<float>{1, 2, 3, 7, 8, 9}));
    const std::vector<std::uint64_t> off{0, 1, 4, 6};
    EXPECT_EQ(sorted_ragged(v, off), (std::vector<float>{3, 1, 2, 9, 7, 8}));
}

TEST(Oracle, SameBytesSeesOneFlippedBit) {
    std::vector<float> a{1.0f, 2.0f, 3.0f};
    std::vector<float> b = a;
    EXPECT_TRUE(same_bytes(a, b));
    b[1] = std::nextafter(b[1], 10.0f);
    EXPECT_FALSE(same_bytes(a, b));
    EXPECT_FALSE(same_bytes(a, std::vector<float>{1.0f, 2.0f}));
}

TEST(Oracle, PairsAllowAnyOrderAmongEqualKeysOnly) {
    const std::vector<float> keys{5, 1, 5, 0, 2, 2};  // two rows of 3
    const auto sorted = sorted_rows(keys, 3);          // {1,5,5, 0,2,2}
    EXPECT_TRUE(pairs_match(keys, sorted, sorted, std::vector<float>{1, 0, 2, 3, 4, 5}, 3));
    EXPECT_TRUE(pairs_match(keys, sorted, sorted, std::vector<float>{1, 2, 0, 3, 5, 4}, 3));
    // A payload used twice, one from the other row, or one whose key differs.
    EXPECT_FALSE(pairs_match(keys, sorted, sorted, std::vector<float>{1, 0, 0, 3, 4, 5}, 3));
    EXPECT_FALSE(pairs_match(keys, sorted, sorted, std::vector<float>{3, 0, 2, 1, 4, 5}, 3));
    EXPECT_FALSE(pairs_match(keys, sorted, sorted, std::vector<float>{0, 1, 2, 3, 4, 5}, 3));
    // Keys out of order fail even with a consistent payload.
    EXPECT_FALSE(pairs_match(keys, sorted, std::vector<float>{5, 1, 5, 0, 2, 2},
                             std::vector<float>{0, 1, 2, 3, 4, 5}, 3));
    EXPECT_EQ(index_payload(3), (std::vector<float>{0, 1, 2}));
}

// ---- Workloads. ----

TEST(Workloads, PaperUniformModeledCostRepeatsExactlyForOneSeed) {
    const auto once = [] {
        auto w = make_paper_uniform(7);
        (void)w->setup();
        Tracer off(false);
        return w->run(0.0, off);  // exactly one pass over the fixed call list
    };
    const WindowResult a = once();
    const WindowResult b = once();
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.attempted, 4u);
    EXPECT_EQ(a.e2e.modeled_ns_per_elem, b.e2e.modeled_ns_per_elem);
    EXPECT_EQ(a.e2e.device_mem_overhead, b.e2e.device_mem_overhead);
    EXPECT_GT(a.e2e.modeled_ns_per_elem, 0.0);
    EXPECT_GT(a.e2e.device_mem_overhead, 0.0);
    EXPECT_LT(a.e2e.device_mem_overhead, 0.25);  // the paper's in-place claim
}

TEST(Workloads, PaperUniformTracesCallPhaseKernel) {
    auto w = make_paper_uniform(7);
    (void)w->setup();
    Tracer on(true);
    const WindowResult r = w->run(0.0, on);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(on.nesting_violations(), 0u);
    std::size_t phases = 0, kernels_in_phases = 0;
    for (const Span& s : on.spans()) {
        const std::string name = s.name;
        if (name.rfind("phase", 0) == 0) {
            ++phases;
            EXPECT_EQ(std::string(on.spans()[s.parent].name), "call");
        }
        if (name == "kernel" && std::string(on.spans()[s.parent].name) != "call") {
            ++kernels_in_phases;
        }
    }
    EXPECT_GE(phases, 3 * r.ops);  // each call runs phases 1, 2 and 3
    EXPECT_GE(kernels_in_phases, phases);
}

TEST(Workloads, ServeMixedHas48EqualClassesOfOneShapeEach) {
    const std::vector<MixedShape> shapes = serve_mixed_shapes();
    std::vector<std::vector<MixedShape>> by_class(48);
    for (const MixedShape& s : shapes) {
        ASSERT_LT(s.cls, by_class.size());
        by_class[s.cls].push_back(s);
    }
    std::set<std::tuple<int, std::size_t, int>> distinct;
    for (const auto& members : by_class) {
        ASSERT_EQ(members.size(), kMixedBodiesPerClass);
        const MixedShape& first = members.front();
        for (const MixedShape& s : members) {
            EXPECT_EQ(s.kind, first.kind);
            EXPECT_EQ(s.n, first.n);
            EXPECT_EQ(s.dist, first.dist);
        }
        distinct.emplace(static_cast<int>(first.kind), first.n, static_cast<int>(first.dist));
    }
    EXPECT_EQ(distinct.size(), 48u);
}

TEST(Workloads, ServedWorkloadsCheckEveryResponseAndNestTheirSpans) {
    for (const auto& name : {"serve_small", "serve_mixed"}) {
        auto w = make_workload(name, 3);
        ASSERT_NE(w, nullptr);
        (void)w->setup();
        Tracer on(true);
        const WindowResult r = w->run(0.25, on);
        EXPECT_GT(r.attempted, 0u) << name;
        EXPECT_EQ(r.failed, 0u) << name;
        EXPECT_EQ(r.e2e.ok_rate, 1.0) << name;
        EXPECT_EQ(on.spans().size(), 4 * r.ops) << name;
        EXPECT_EQ(on.nesting_violations(), 0u) << name;
        EXPECT_NO_THROW((void)parse_json(on.chrome_json("{}"))) << name;
    }
    EXPECT_EQ(make_workload("no_such_workload", 1), nullptr);
}

}  // namespace
