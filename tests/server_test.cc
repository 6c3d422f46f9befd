// Tests for the Cheetah-style server libOS (src/exos/server): the strict
// HTTP parser's fuzz table, protocol round trips, the KvStore over a
// journaled LibFS, the DPF shard-split fairness rules (deepest match
// wins, ties to the lowest id, duplicates rejected at bind), and the
// whole system end to end — loadgen client, sharded workers, ASH fast
// path — on one simulated machine.
#include "src/exos/server/server.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rand.h"
#include "src/dpf/dpf.h"
#include "src/dpf/tcpip_filters.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/tracelib.h"
#include "src/hw/disk.h"
#include "src/net/wire.h"

namespace xok::exos::server {
namespace {

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// --- Parser fuzz table (satellite: >= 10 malformed shapes) ---

struct FuzzCase {
  const char* name;
  std::string text;
  ParseError want;
};

std::vector<FuzzCase> FuzzTable() {
  std::vector<FuzzCase> cases;
  cases.push_back({"empty", "", ParseError::kTruncated});
  cases.push_back({"no_crlf", "GET /k HTTP/1.0", ParseError::kTruncated});
  cases.push_back({"binary_noise", std::string("\x01\x7f\x02\xfe\x03garbage\x04\x05\x06"),
                   ParseError::kTruncated});
  cases.push_back({"line_too_long",
                   "GET /" + std::string(200, 'a') + " HTTP/1.0\r\n\r\n",
                   ParseError::kLineTooLong});
  cases.push_back({"lowercase_method", "get /k HTTP/1.0\r\n\r\n", ParseError::kBadMethod});
  cases.push_back({"unknown_method", "POST /k HTTP/1.0\r\n\r\n", ParseError::kBadMethod});
  cases.push_back({"no_spaces", "GET/kHTTP/1.0\r\n\r\n", ParseError::kBadMethod});
  cases.push_back({"no_second_space", "GET /k\r\n\r\n", ParseError::kBadUri});
  cases.push_back({"no_leading_slash", "GET k HTTP/1.0\r\n\r\n", ParseError::kBadUri});
  cases.push_back({"empty_key", "GET / HTTP/1.0\r\n\r\n", ParseError::kEmptyKey});
  cases.push_back({"key_too_long",
                   "GET /" + std::string(kMaxKeyBytes + 13, 'k') + " HTTP/1.0\r\n\r\n",
                   ParseError::kKeyTooLong});
  cases.push_back({"bad_key_char", "GET /k%20x HTTP/1.0\r\n\r\n", ParseError::kBadKeyChar});
  cases.push_back({"wrong_version", "GET /k HTTP/1.1\r\n\r\n", ParseError::kBadVersion});
  cases.push_back({"version_trailing_space", "GET /k HTTP/1.0 \r\n\r\n",
                   ParseError::kBadVersion});
  {
    std::string text = "GET /k HTTP/1.0\r\n";
    for (int i = 0; i < 30; ++i) {
      text += "A: bbbbbbbb\r\n";  // 390 header bytes, limit is 256.
    }
    text += "\r\n";
    cases.push_back({"headers_too_big", text, ParseError::kHeadersTooBig});
  }
  cases.push_back({"header_no_colon", "GET /k HTTP/1.0\r\njunk\r\n\r\n",
                   ParseError::kBadHeader});
  cases.push_back({"put_no_content_length", "PUT /k HTTP/1.0\r\n\r\nbody",
                   ParseError::kNoContentLength});
  cases.push_back({"bad_content_length", "PUT /k HTTP/1.0\r\nContent-Length: 12x\r\n\r\n",
                   ParseError::kBadContentLength});
  cases.push_back({"value_too_long",
                   "PUT /k HTTP/1.0\r\nContent-Length: 600\r\n\r\n" + std::string(600, 'v'),
                   ParseError::kValueTooLong});
  cases.push_back({"body_truncated", "PUT /k HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc",
                   ParseError::kBodyTruncated});
  cases.push_back({"no_blank_line", "GET /k HTTP/1.0\r\nX: 1\r\n", ParseError::kNoBlankLine});
  return cases;
}

TEST(HttpParserTest, FuzzTableRejectsEveryMalformedShape) {
  const std::vector<FuzzCase> cases = FuzzTable();
  ASSERT_GE(cases.size(), 10u);
  for (const FuzzCase& c : cases) {
    SCOPED_TRACE(c.name);
    HttpRequest req;
    EXPECT_EQ(ParseHttpRequest(AsBytes(c.text), &req), c.want);
    EXPECT_STRNE(ParseErrorName(c.want), "unknown");
  }
}

TEST(HttpParserTest, CanonicalRequestsParse) {
  HttpRequest req;
  const std::string get = BuildGetRequest("alpha_key.1");
  ASSERT_EQ(ParseHttpRequest(AsBytes(get), &req), ParseError::kOk);
  EXPECT_EQ(req.method, Method::kGet);
  EXPECT_EQ(req.key, "alpha_key.1");
  EXPECT_TRUE(req.body.empty());

  const std::string put = BuildPutRequest("beta-2", "the value bytes");
  ASSERT_EQ(ParseHttpRequest(AsBytes(put), &req), ParseError::kOk);
  EXPECT_EQ(req.method, Method::kPut);
  EXPECT_EQ(req.key, "beta-2");
  EXPECT_EQ(req.body, "the value bytes");

  const std::string quit = BuildQuitRequest();
  ASSERT_EQ(ParseHttpRequest(AsBytes(quit), &req), ParseError::kOk);
  EXPECT_EQ(req.method, Method::kQuit);
}

TEST(HttpParserTest, ResponseRoundTripDetectsCorruption) {
  const std::string body = "hello exokernel";
  const std::string text = BuildHttpResponse(200, body);
  std::vector<uint8_t> payload(kRespHeaderBytes + text.size());
  net::PutBe32(payload, 0, 0xdeadbeefu);
  std::copy(text.begin(), text.end(), payload.begin() + kRespHeaderBytes);

  HttpResponseView view;
  ASSERT_TRUE(ParseResponsePayload(payload, &view));
  EXPECT_EQ(view.req_id, 0xdeadbeefu);
  EXPECT_EQ(view.status, 200);
  EXPECT_EQ(view.body, body);
  EXPECT_TRUE(view.sum_ok);

  // Flip one body byte: X-Sum verification must catch it.
  payload.back() ^= 0x40;
  ASSERT_TRUE(ParseResponsePayload(payload, &view));
  EXPECT_FALSE(view.sum_ok);

  // Empty-body statuses round-trip too.
  const std::string nf = BuildHttpResponse(404, "");
  std::vector<uint8_t> nf_payload(kRespHeaderBytes + nf.size());
  net::PutBe32(nf_payload, 0, 7);
  std::copy(nf.begin(), nf.end(), nf_payload.begin() + kRespHeaderBytes);
  ASSERT_TRUE(ParseResponsePayload(nf_payload, &view));
  EXPECT_EQ(view.status, 404);
  EXPECT_TRUE(view.body.empty());
  EXPECT_TRUE(view.sum_ok);
}

TEST(LoadGenValueTest, ValueImageRoundTrip) {
  const std::string key = LoadKeyName(3);
  EXPECT_EQ(key, "k003");
  const std::string v0 = MakeValue(key, 0, 64);
  const std::string v37 = MakeValue(key, 37, 64);
  EXPECT_EQ(v0.size(), 64u);
  EXPECT_EQ(ParseValueVersion(key, v0, 64), 0);
  EXPECT_EQ(ParseValueVersion(key, v37, 64), 37);
  // Wrong key, tampered padding, and truncation are all invalid images.
  EXPECT_EQ(ParseValueVersion("k004", v0, 64), -1);
  std::string tampered = v37;
  tampered.back() ^= 1;
  EXPECT_EQ(ParseValueVersion(key, tampered, 64), -1);
  EXPECT_EQ(ParseValueVersion(key, v37.substr(0, 30), 64), -1);

  const auto preload = MakePreload(5, 48);
  ASSERT_EQ(preload.size(), 5u);
  for (const auto& [k, v] : preload) {
    EXPECT_EQ(ParseValueVersion(k, v, 48), 0);
  }
}

// --- Exact bytes of the request-path text builders ---

TEST(HttpBuilderGoldenTest, ResponseBytesForEveryStatusAndOption) {
  struct Code {
    int status;
    const char* line;
  };
  const Code codes[] = {
      {200, "HTTP/1.0 200 OK\r\n"},
      {201, "HTTP/1.0 201 Created\r\n"},
      {400, "HTTP/1.0 400 Bad Request\r\n"},
      {404, "HTTP/1.0 404 Not Found\r\n"},
      {503, "HTTP/1.0 503 Service Unavailable\r\n"},
      {500, "HTTP/1.0 500 Error\r\n"},
  };
  for (const Code& code : codes) {
    for (const bool retry : {false, true}) {
      for (const bool stale : {false, true}) {
        std::string want = code.line;
        want += "Content-Length: 5\r\nX-Sum: 0a3f\r\n";
        if (retry) {
          want += "Retry-After: 4294967295\r\n";
        }
        if (stale) {
          want += "X-Stale: 1\r\n";
        }
        want += "\r\nhello";
        const ResponseOptions opts{.retry_after_us = retry ? 4294967295u : 0u, .stale = stale};
        EXPECT_EQ(BuildHttpResponse(code.status, "hello", 0x0a3f, opts), want)
            << code.status << " retry=" << retry << " stale=" << stale;
      }
    }
  }
  EXPECT_EQ(BuildHttpResponse(404, ""),
            std::string("HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nX-Sum: ffff\r\n\r\n"));
  EXPECT_EQ(BuildHttpResponse(200, "", 0x0000, ResponseOptions{.retry_after_us = 7}),
            "HTTP/1.0 200 OK\r\nContent-Length: 0\r\nX-Sum: 0000\r\nRetry-After: 7\r\n\r\n");
  EXPECT_EQ(BuildHttpResponse(-1, "x", 0xbeef),
            "HTTP/1.0 -1 Error\r\nContent-Length: 1\r\nX-Sum: beef\r\n\r\nx");
  const std::string big(1234, 'v');
  EXPECT_EQ(BuildHttpResponse(200, big, 0x00c0),
            "HTTP/1.0 200 OK\r\nContent-Length: 1234\r\nX-Sum: 00c0\r\n\r\n" + big);
}

TEST(HttpBuilderGoldenTest, RequestBytes) {
  EXPECT_EQ(BuildPutRequest("k007", "k007#3#xyz"),
            "PUT /k007 HTTP/1.0\r\nContent-Length: 10\r\n\r\nk007#3#xyz");
  EXPECT_EQ(BuildPutRequest("a", ""), "PUT /a HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  const std::string body(1024, 'q');
  EXPECT_EQ(BuildPutRequest("big", body),
            "PUT /big HTTP/1.0\r\nContent-Length: 1024\r\n\r\n" + body);
  EXPECT_EQ(BuildGetRequest("k042"), "GET /k042 HTTP/1.0\r\n\r\n");
}

TEST(LoadGenValueTest, KeyNamesPadToThreeDigits) {
  EXPECT_EQ(LoadKeyName(0), "k000");
  EXPECT_EQ(LoadKeyName(7), "k007");
  EXPECT_EQ(LoadKeyName(42), "k042");
  EXPECT_EQ(LoadKeyName(999), "k999");
  EXPECT_EQ(LoadKeyName(1000), "k1000");
  EXPECT_EQ(LoadKeyName(12345), "k12345");
  EXPECT_EQ(LoadKeyName(4294967295u), "k4294967295");
}

// The value image as first specified: built one byte at a time.
std::string ReferenceValue(std::string_view key, uint32_t version, uint32_t value_bytes) {
  std::string value(key);
  value += '#';
  value += std::to_string(version);
  value += '#';
  const uint32_t h = KeyHash(key);
  while (value.size() < value_bytes) {
    value += static_cast<char>('a' + (h + version + value.size()) % 26);
  }
  return value;
}

TEST(LoadGenValueTest, ParseAcceptsExactlyTheCanonicalImages) {
  const std::string key = "k003";
  const std::string v7 = MakeValue(key, 7, 24);
  ASSERT_EQ(v7, ReferenceValue(key, 7, 24));
  EXPECT_EQ(ParseValueVersion(key, v7, 24), 7);

  std::string leading_zero = "k003#07#" + v7.substr(7);  // Same length, "07".
  leading_zero.resize(24);
  EXPECT_EQ(ParseValueVersion(key, leading_zero, 24), -1);
  EXPECT_EQ(ParseValueVersion(key, v7 + v7.back(), 24), -1);  // One extra byte.
  EXPECT_EQ(ParseValueVersion(key, v7.substr(0, 23), 24), -1);  // One byte short.
  std::string wrong_last = v7;
  wrong_last.back() = wrong_last.back() == 'a' ? 'b' : 'a';
  EXPECT_EQ(ParseValueVersion(key, wrong_last, 24), -1);
  const std::string ten_digits = ReferenceValue(key, 1234567890u, 24);
  EXPECT_EQ(ParseValueVersion(key, ten_digits, 24), -1);
  // A prefix longer than value_bytes carries no padding at all.
  const std::string unpadded = MakeValue(key, 123456789, 8);
  EXPECT_EQ(unpadded, "k003#123456789#");
  EXPECT_EQ(ParseValueVersion(key, unpadded, 8), 123456789);
  EXPECT_EQ(ParseValueVersion(key, "k003#0#", 4), 0);
  EXPECT_EQ(ParseValueVersion(key, "k003#00#", 4), -1);

  // The pad letter wraps with h + version at 32 bits: pick a key whose hash
  // is close enough to the top that the largest 9-digit version wraps it.
  uint32_t wrap_index = 0;
  while (KeyHash(LoadKeyName(wrap_index)) <= 0xffffffffu - 999999999u) {
    ++wrap_index;
  }
  const std::string wrap_key = LoadKeyName(wrap_index);
  const std::string wrapped = MakeValue(wrap_key, 999999999u, 64);
  EXPECT_EQ(wrapped, ReferenceValue(wrap_key, 999999999u, 64));
  EXPECT_EQ(ParseValueVersion(wrap_key, wrapped, 64), 999999999);
}

TEST(LoadGenValueTest, ParseAgreesWithTheReferenceOnMutatedImages) {
  // Accept iff the body equals the reference image at its parsed version.
  auto reference_parse = [](std::string_view key, std::string_view body, uint32_t bytes) {
    const size_t prefix = key.size() + 1;
    if (body.size() < prefix + 2 || body.substr(0, key.size()) != key ||
        body[key.size()] != '#') {
      return -1;
    }
    const size_t end = body.find('#', prefix);
    if (end == std::string_view::npos || end == prefix || end - prefix > 9) {
      return -1;
    }
    uint32_t version = 0;
    for (size_t i = prefix; i < end; ++i) {
      if (body[i] < '0' || body[i] > '9') {
        return -1;
      }
      version = version * 10 + static_cast<uint32_t>(body[i] - '0');
    }
    return body == ReferenceValue(key, version, bytes) ? static_cast<int>(version) : -1;
  };
  SplitMix64 rng(27);
  const char alphabet[] = "0123456789#abcdefghijklmnopqrstuvwxyzk";
  for (int round = 0; round < 4000; ++round) {
    const std::string key = LoadKeyName(static_cast<uint32_t>(rng.NextBelow(1200)));
    const uint32_t bytes = static_cast<uint32_t>(rng.NextBelow(40));
    const uint32_t version = rng.NextBelow(4) == 0
                                 ? static_cast<uint32_t>(rng.NextBelow(1000000000))
                                 : static_cast<uint32_t>(rng.NextBelow(20));
    std::string body = MakeValue(key, version, bytes);
    ASSERT_EQ(body, ReferenceValue(key, version, bytes));
    switch (rng.NextBelow(4)) {
      case 0: break;  // Canonical.
      case 1:
        body[rng.NextBelow(body.size())] = alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
        break;
      case 2: body.insert(rng.NextBelow(body.size() + 1), 1, '0'); break;
      default: body.erase(rng.NextBelow(body.size()), 1); break;
    }
    ASSERT_EQ(ParseValueVersion(key, body, bytes), reference_parse(key, body, bytes))
        << "key " << key << " bytes " << bytes << " body " << body;
  }
}

TEST(LatencySummaryTest, TailPercentilesRequireEnoughSamples) {
  EXPECT_EQ(SummarizeLatencies({}).count, 0u);
  EXPECT_FALSE(SummarizeLatencies({}).samples_insufficient);

  // 99 samples: the 99th and 99.9th ranks both degenerate to the max, so
  // the tails report 0 with the flag raised instead of masquerading.
  std::vector<uint64_t> few(99);
  for (size_t i = 0; i < few.size(); ++i) {
    few[i] = i + 1;
  }
  const LatencySummary sparse = SummarizeLatencies(std::move(few));
  EXPECT_EQ(sparse.count, 99u);
  EXPECT_EQ(sparse.p50, 50u);
  EXPECT_TRUE(sparse.samples_insufficient);
  EXPECT_EQ(sparse.p99, 0u);
  EXPECT_EQ(sparse.p999, 0u);
  EXPECT_EQ(sparse.max, 99u);

  // One more sample crosses the guard: nearest-rank tails appear.
  std::vector<uint64_t> enough(100);
  for (size_t i = 0; i < enough.size(); ++i) {
    enough[i] = i + 1;
  }
  const LatencySummary dense = SummarizeLatencies(std::move(enough));
  EXPECT_FALSE(dense.samples_insufficient);
  EXPECT_EQ(dense.p50, 50u);
  EXPECT_EQ(dense.p99, 99u);
  EXPECT_EQ(dense.p999, 100u);
  EXPECT_EQ(dense.max, 100u);
}

TEST(ShardingTest, ShardByteAndAtomAgree) {
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    for (uint32_t i = 0; i < 16; ++i) {
      const std::string key = LoadKeyName(i);
      const uint32_t shard = KeyHash(key) & (workers - 1);
      const dpf::Atom atom = KvServer::ShardAtom(shard, workers);
      EXPECT_EQ(atom.offset, net::kUdpPayloadOff);
      EXPECT_EQ(atom.width, 1);
      EXPECT_EQ(atom.mask, workers - 1);
      // The envelope's shard byte, masked, must satisfy the atom.
      const auto payload = BuildRequestPayload(1, BuildGetRequest(key), key);
      EXPECT_EQ(payload[0], ShardByte(key));
      EXPECT_EQ(payload[0] & atom.mask, atom.value) << key << " workers=" << workers;
    }
  }
}

// --- DPF fairness: deepest match wins, ties to lowest id, duplicates
// rejected (satellite 2, engine level) ---

std::vector<uint8_t> RequestFrame(uint16_t dst_port, const std::string& key) {
  const auto payload = BuildRequestPayload(9, BuildGetRequest(key), key);
  return net::BuildUdpFrame(0xa, 0xa, /*src_ip=*/2, /*dst_ip=*/1, /*src_port=*/7999,
                            dst_port, payload);
}

TEST(DpfFairnessTest, ShardFiltersBeatCatchAllAndTiesBreakToLowestId) {
  dpf::DpfEngine engine;

  // A shallow catch-all (port only, 3 atoms) plus the two shard filters
  // (port + masked shard byte, 4 atoms) the two-worker server binds.
  Result<dpf::FilterId> catch_all = engine.Insert(dpf::UdpPortFilter(7080));
  ASSERT_TRUE(catch_all.ok());
  dpf::FilterSpec shard0 = dpf::UdpPortFilter(7080);
  shard0.atoms.push_back(KvServer::ShardAtom(0, 2));
  dpf::FilterSpec shard1 = dpf::UdpPortFilter(7080);
  shard1.atoms.push_back(KvServer::ShardAtom(1, 2));
  Result<dpf::FilterId> id0 = engine.Insert(shard0);
  Result<dpf::FilterId> id1 = engine.Insert(shard1);
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());

  // Every request is steered by its key's shard byte; the shallower
  // catch-all never sees a frame (deepest match wins).
  for (uint32_t i = 0; i < 12; ++i) {
    const std::string key = LoadKeyName(i);
    const uint32_t shard = KeyHash(key) & 1;
    EXPECT_EQ(engine.Classify(RequestFrame(7080, key)), shard == 0 ? *id0 : *id1) << key;
  }

  // Rebinding either shard filter atom-for-atom is rejected: a second
  // consumer cannot steal a bound worker's traffic.
  EXPECT_EQ(engine.Insert(shard0).status(), Status::kErrAlreadyExists);
  EXPECT_EQ(engine.Insert(shard1).status(), Status::kErrAlreadyExists);

  // Equal depth, both matching: the earliest-bound (lowest id) filter
  // wins. mask=0 atoms are wildcards at the shard byte, so both of these
  // 4-atom filters match every request; they tie with the shard filters
  // and lose to them on id.
  dpf::FilterSpec wild_a = dpf::UdpPortFilter(7080);
  wild_a.atoms.push_back(dpf::Atom{.offset = net::kUdpPayloadOff, .width = 1, .mask = 0, .value = 0});
  dpf::FilterSpec wild_b = dpf::UdpPortFilter(7080);
  wild_b.atoms.push_back(
      dpf::Atom{.offset = net::kUdpPayloadOff + 1, .width = 1, .mask = 0, .value = 0});
  Result<dpf::FilterId> wa = engine.Insert(wild_a);
  Result<dpf::FilterId> wb = engine.Insert(wild_b);
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  const std::string key0 = LoadKeyName(0);
  const uint32_t shard_of_key0 = KeyHash(key0) & 1;
  EXPECT_EQ(engine.Classify(RequestFrame(7080, key0)),
            shard_of_key0 == 0 ? *id0 : *id1);

  // Remove the owning shard filter: the tie between the two wildcards
  // resolves to the lower id (earliest bound), not the later one.
  ASSERT_EQ(engine.Remove(shard_of_key0 == 0 ? *id0 : *id1), Status::kOk);
  EXPECT_EQ(engine.Classify(RequestFrame(7080, key0)), *wa);
  ASSERT_EQ(engine.Remove(*wa), Status::kOk);
  EXPECT_EQ(engine.Classify(RequestFrame(7080, key0)), *wb);
  // And with both wildcards gone the shallow catch-all finally matches.
  ASSERT_EQ(engine.Remove(*wb), Status::kOk);
  EXPECT_EQ(engine.Classify(RequestFrame(7080, key0)), *catch_all);
}

// --- Simulated-machine rig: one machine, loopback NIC, disk ---

uint64_t LoopResolve(uint32_t) { return 0xa; }  // Everything is us.
NetIface ServerIface() { return NetIface{0xa, 1, LoopResolve}; }
NetIface ClientIface() { return NetIface{0xa, 2, LoopResolve}; }

struct Rig {
  hw::Machine machine;
  aegis::Aegis kernel;
  hw::Nic nic;
  hw::Disk disk;

  explicit Rig(uint32_t cpus, uint32_t phys_pages = 2048, uint32_t disk_blocks = 1024)
      : machine(hw::Machine::Config{.phys_pages = phys_pages, .name = "srv", .cpus = cpus}),
        kernel(machine, aegis::Aegis::Config{.max_envs = 200}),
        nic(machine, 0xa),
        disk(machine, disk_blocks) {
    kernel.AttachNic(&nic);
    kernel.AttachDisk(&disk);
    kernel.set_audit_on_fault(true);
  }
};

TEST(KvStoreTest, PutGetOverwriteEvictAndFsck) {
  Rig rig(/*cpus=*/1, /*phys_pages=*/512, /*disk_blocks=*/512);
  bool done = false;
  Process proc(rig.kernel, [&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = p.kernel().SysAllocDiskExtent(48);
    ASSERT_TRUE(extent.ok());
    LibFs::Options options;
    options.cache_slots = 8;
    Result<std::unique_ptr<LibFs>> fs = LibFs::Format(p, *extent, options);
    ASSERT_TRUE(fs.ok());
    KvStore store(p, fs->get(), /*cache_entries=*/4);

    // Missing key.
    Result<const KvStore::Entry*> miss = store.Get("absent");
    EXPECT_EQ(miss.status(), Status::kErrNotFound);

    // Put + Get with the precomputed checksum.
    const std::string v1(64, 'x');
    ASSERT_EQ(store.Put("alpha", v1), Status::kOk);
    Result<const KvStore::Entry*> got = store.Get("alpha");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->value, v1);
    EXPECT_EQ((*got)->sum, BodySum(v1));

    // A shorter overwrite must not leak the stale tail — including via a
    // fresh store (read-through from disk, not the writer's cache).
    ASSERT_EQ(store.Put("alpha", "tiny"), Status::kOk);
    ASSERT_EQ(fs->get()->Sync(), Status::kOk);
    KvStore cold(p, fs->get(), 4);
    got = cold.Get("alpha");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->value, "tiny");
    EXPECT_EQ((*got)->sum, BodySum("tiny"));

    // Bounds: oversized values and bad keys are rejected before the fs.
    EXPECT_EQ(store.Put("alpha", std::string(kMaxValueBytes + 1, 'v')),
              Status::kErrOutOfRange);
    EXPECT_EQ(store.Put("", "v"), Status::kErrOutOfRange);
    EXPECT_EQ(store.Put(std::string(kMaxKeyBytes + 1, 'k'), "v"), Status::kErrOutOfRange);

    // More keys than cache entries: eviction, then read-through refills.
    for (int i = 0; i < 6; ++i) {
      const std::string key = "evict" + std::to_string(i);
      ASSERT_EQ(store.Put(key, MakeValue(key, 0, 32)), Status::kOk);
    }
    for (int i = 0; i < 6; ++i) {
      const std::string key = "evict" + std::to_string(i);
      got = store.Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ((*got)->value, MakeValue(key, 0, 32)) << key;
    }
    EXPECT_GE(store.stats().misses, 2u);  // The evicted ones read through.

    ASSERT_EQ(fs->get()->Sync(), Status::kOk);
    EXPECT_EQ(fs->get()->Fsck(), Status::kOk) << fs->get()->fsck_error();
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  rig.kernel.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

TEST(TraceMarkTest, AppMarksLandInTheRing) {
  Rig rig(/*cpus=*/1, /*phys_pages=*/256, /*disk_blocks=*/64);
  bool done = false;
  Process proc(rig.kernel, [&](Process& p) {
    TraceSession trace(p);
    TraceConfig config;
    config.mask = xtrace::Bit(xtrace::Event::kAppMark);
    ASSERT_EQ(trace.Bind(config), Status::kOk);
    ASSERT_EQ(p.kernel().SysTraceMark(42, 0, 7, 99), Status::kOk);
    ASSERT_EQ(p.kernel().SysTraceMark(42, 1, 200, 128), Status::kOk);
    std::vector<xtrace::Record> records;
    trace.Drain(records);
    ASSERT_EQ(records.size(), 2u);
    for (const xtrace::Record& r : records) {
      EXPECT_EQ(static_cast<xtrace::Event>(r.type), xtrace::Event::kAppMark);
      EXPECT_EQ(r.env, p.id());
      EXPECT_EQ(r.arg0, 42u);
    }
    EXPECT_EQ(records[0].arg1, 0u);
    EXPECT_EQ(records[0].arg2, 7u);
    EXPECT_EQ(records[0].arg3, 99u);
    EXPECT_EQ(records[1].arg1, 1u);
    EXPECT_EQ(records[1].arg2, 200u);
    EXPECT_EQ(records[1].arg3, 128u);
    EXPECT_GE(records[1].cycle, records[0].cycle);
    ASSERT_EQ(trace.Close(), Status::kOk);
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  rig.kernel.Run();
  EXPECT_TRUE(done);
}

// --- The whole system: loadgen against the sharded server, ASH on ---

TEST(KvServerTest, EndToEndServesLoadWithAshFastPath) {
  Rig rig(/*cpus=*/2);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 2;
  config.use_rings = true;
  config.use_ash = true;
  config.hot_keys = {LoadKeyName(0)};
  config.ash_peer_ip = 2;
  config.ash_peer_port = 7999;
  config.preload = MakePreload(12, 64);
  config.stride_slices_per_cpu = 400;
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  WorkloadConfig workload;
  workload.seed = 7;
  workload.requests = 160;
  workload.keys = 12;
  workload.put_per_mille = 150;
  workload.trace = true;
  workload.slo_cycles = 25'000;  // 1ms first-send->ack budget.
  LoadGenTarget target;
  target.iface = ClientIface();
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;
  target.hot_key = LoadKeyName(0);

  LoadStats stats;
  Process client(rig.kernel, [&](Process& p) { stats = RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());
  rig.kernel.Run();

  // Every data request and both QUITs acknowledged; nothing corrupt.
  EXPECT_EQ(stats.acked, workload.requests + config.workers);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_GT(stats.ok_200, 0u);
  EXPECT_GT(stats.created_201, 0u);
  EXPECT_GT(stats.latency.count, 0u);
  EXPECT_GT(stats.hot_latency.count, 0u);
  EXPECT_GE(stats.latency.p999, stats.latency.p50);
  EXPECT_GT(stats.Rps(), 0.0);

  // The hot key is answered at interrupt level, and the trace ring saw
  // both the ring path and the ASH path.
  EXPECT_GT(server.TotalAshHits(), 0u);
  EXPECT_GT(stats.stages.path_ash, 0u);
  EXPECT_GT(stats.stages.path_ring, 0u);
  EXPECT_GT(stats.stages.service.count, 0u);

  // Per-request critical paths assembled end to end. A ring-wait span can
  // only exist if the kernel demux copied the request-id tag out of the
  // frame (kDpfMatch arg3) AND the worker's enter mark joined to it —
  // library marks alone cannot produce this span, so its presence is the
  // proof the kernel half of the join works live.
  EXPECT_GT(stats.reqs.timelines, 0u);
  EXPECT_GT(
      stats.reqs.span[static_cast<uint32_t>(reqtrace::Span::kRingWait)].count,
      0u);
  EXPECT_GT(stats.reqs.covered.count, 0u);
  // Spans telescope, so each covered total is exactly the distance between
  // that request's first and last observed boundary: p50 coverage of the
  // end-to-end anchored pool can approach but never exceed the measured
  // send->ack p50's order of magnitude. Sanity-bound it loosely here (the
  // >=90% contract is the bench's job, with controlled load).
  EXPECT_LE(stats.reqs.covered.p50, stats.latency.max);

  // SLO accounting: every acked data request landed in exactly one bucket.
  EXPECT_EQ(stats.slo.slo_cycles, workload.slo_cycles);
  EXPECT_EQ(stats.slo.good + stats.slo.late,
            static_cast<uint64_t>(workload.requests));
  EXPECT_EQ(stats.slo.shed, 0u);
  EXPECT_GT(stats.slo.good, 0u);

  // Both shards served traffic (each at least its QUIT) and exited
  // cleanly under the supervisor; fast-path hits plus worker requests
  // cover every acknowledged request.
  EXPECT_TRUE(server.AllWorkersDone());
  EXPECT_TRUE(server.supervisor().finished());
  EXPECT_EQ(server.supervisor().total_restarts(), 0u);
  uint64_t worker_requests = 0;
  for (uint32_t i = 0; i < config.workers; ++i) {
    const WorkerStats& ws = server.worker_stats(i);
    EXPECT_GE(ws.requests, 1u) << "worker " << i;
    EXPECT_EQ(ws.quits, 1u) << "worker " << i;
    EXPECT_EQ(ws.setup_failures, 0u) << "worker " << i;
    EXPECT_EQ(ws.incarnations, 1u) << "worker " << i;
    // Every stage mark the worker emitted was accepted by the kernel
    // (satellite 1: failures are counted now, never discarded).
    EXPECT_EQ(ws.trace_mark_failures, 0u) << "worker " << i;
    worker_requests += ws.requests;
  }
  EXPECT_GE(worker_requests + server.TotalAshHits(), stats.acked);

  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

// Satellite 3 at system level: a stream heavy with malformed and
// oversized requests is all answered 400 — the worker never crashes.
TEST(KvServerTest, MalformedStormLeavesWorkersStanding) {
  Rig rig(/*cpus=*/1);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 1;
  config.use_rings = true;
  config.preload = MakePreload(8, 48);
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  WorkloadConfig workload;
  workload.seed = 11;
  workload.requests = 120;
  workload.keys = 8;
  workload.value_bytes = 48;
  workload.put_per_mille = 100;
  workload.malformed_per_mille = 500;
  workload.oversized_per_mille = 200;
  LoadGenTarget target;
  target.iface = ClientIface();
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = 1;

  LoadStats stats;
  Process client(rig.kernel, [&](Process& p) { stats = RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());
  rig.kernel.Run();

  EXPECT_EQ(stats.acked, workload.requests + 1);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_GT(stats.bad_400, 0u);

  const WorkerStats& ws = server.worker_stats(0);
  EXPECT_EQ(ws.incarnations, 1u);  // Never crashed, never restarted.
  EXPECT_EQ(ws.setup_failures, 0u);
  EXPECT_TRUE(ws.done);
  EXPECT_GT(ws.bad_requests, 0u);
  EXPECT_EQ(server.supervisor().total_restarts(), 0u);
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

// Satellite 2 at system level: two workers split the key space via the
// shard atoms; a shallower catch-all bound to the same port is starved
// (deepest match wins), and rebinding a worker's exact filter is refused.
TEST(KvServerTest, TwoWorkerShardSplitStarvesCatchAll) {
  Rig rig(/*cpus=*/2);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 2;
  config.use_rings = true;
  config.preload = MakePreload(12, 64);
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  WorkloadConfig workload;
  workload.seed = 13;
  workload.requests = 300;
  workload.keys = 12;
  workload.put_per_mille = 0;  // GET-only: pure demux behaviour.
  LoadGenTarget target;
  target.iface = ClientIface();
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = 2;

  LoadStats stats;
  Process client(rig.kernel, [&](Process& p) { stats = RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());

  bool catch_all_checked = false;
  Process catch_all(rig.kernel, [&](Process& p) {
    // Wait until both workers are serving, so our shallow filter cannot
    // transiently be the only match for early frames.
    while (server.worker_stats(0).requests == 0 || server.worker_stats(1).requests == 0) {
      p.kernel().SysSleep(20'000);
    }
    // A second consumer may not rebind a worker's exact filter...
    UdpSocket dup(p, ServerIface());
    EXPECT_NE(dup.Bind(config.port, {KvServer::ShardAtom(0, 2)}), Status::kOk);
    // ...but a distinct, shallower claim on the same port is legal.
    UdpSocket sock(p, ServerIface());
    ASSERT_EQ(sock.Bind(config.port), Status::kOk);
    while (!server.AllWorkersDone()) {
      p.kernel().SysSleep(20'000);
    }
    // Every frame matched a deeper shard filter first: nothing for us.
    Result<Datagram> got = sock.Recv(/*blocking=*/false);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.status(), Status::kErrWouldBlock);
    (void)sock.Close();
    catch_all_checked = true;
  });
  ASSERT_TRUE(catch_all.ok());
  rig.kernel.Run();

  EXPECT_TRUE(catch_all_checked);
  EXPECT_EQ(stats.acked, workload.requests + 2);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.unexpected, 0u);

  // Both shards served their split of the key space.
  uint32_t shard_keys[2] = {0, 0};
  for (uint32_t i = 0; i < workload.keys; ++i) {
    ++shard_keys[server.ShardOf(LoadKeyName(i))];
  }
  uint64_t total_gets = 0;
  for (uint32_t i = 0; i < 2; ++i) {
    const WorkerStats& ws = server.worker_stats(i);
    EXPECT_GE(ws.requests, 1u) << "worker " << i;  // At least its QUIT.
    EXPECT_EQ(ws.quits, 1u);
    if (shard_keys[i] > 0) {
      EXPECT_GT(ws.gets, 0u) << "worker " << i << " owns " << shard_keys[i] << " keys";
    }
    total_gets += ws.gets;
  }
  // Acked 200s = data GETs + the two QUITs; the workers saw every one.
  EXPECT_GE(total_gets + 2, stats.ok_200);
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

// --- Overload control and graceful degradation (PR 8) ---

TEST(HttpParserTest, ResponseDecorationsRoundTrip) {
  // Default options are byte-identical to the undecorated builder: the
  // overload machinery disarmed leaves the seed wire format untouched.
  EXPECT_EQ(BuildHttpResponse(200, "v", BodySum("v"), ResponseOptions{}),
            BuildHttpResponse(200, "v"));

  const std::string body = "cached-value";
  const std::string text = BuildHttpResponse(
      200, body, BodySum(body), ResponseOptions{.retry_after_us = 350, .stale = true});
  std::vector<uint8_t> payload(kRespHeaderBytes + text.size());
  net::PutBe32(payload, 0, 42);
  std::copy(text.begin(), text.end(), payload.begin() + kRespHeaderBytes);
  HttpResponseView view;
  ASSERT_TRUE(ParseResponsePayload(payload, &view));
  EXPECT_EQ(view.req_id, 42u);
  EXPECT_EQ(view.status, 200);
  EXPECT_EQ(view.body, body);
  EXPECT_TRUE(view.sum_ok);
  EXPECT_TRUE(view.stale);
  EXPECT_EQ(view.retry_after_us, 350u);

  // The envelope's 64-bit deadline survives the two-word big-endian split.
  const uint64_t deadline = 0x123456789abcdef0ull;
  const auto req = BuildRequestPayload(7, BuildGetRequest("k"), "k", -1, deadline);
  EXPECT_EQ(RequestDeadline(req), deadline);
  EXPECT_EQ(RequestDeadline(BuildRequestPayload(8, BuildGetRequest("k"), "k")), 0u);
}

// A reply copied out of the recv buffer (HttpResponseView's views point
// into the datagram, which dies with the loop iteration).
struct OwnedReply {
  int status = 0;
  bool stale = false;
  uint32_t retry_after_us = 0;
  bool sum_ok = false;
  std::string body;
};

// Sends `payload` and polls until the reply echoing its request id
// arrives, retransmitting every ~1M cycles (the worker may be booting, or
// stuck in a multi-million-cycle failing disk retry). Replies to other
// ids — dups of earlier retransmitted requests — are ignored.
bool Rpc(Process& p, UdpSocket& sock, const std::vector<uint8_t>& payload,
         OwnedReply* out, int max_transmits = 200) {
  const uint32_t want = net::GetBe32(payload, 1);
  for (int t = 0; t < max_transmits; ++t) {
    if (sock.SendTo(/*dst_ip=*/1, /*dst_port=*/7080, payload) != Status::kOk) {
      return false;
    }
    const uint64_t until = p.kernel().SysGetCycles() + 1'000'000;
    while (p.kernel().SysGetCycles() < until) {
      Result<Datagram> got = sock.Recv(/*blocking=*/false);
      if (got.ok()) {
        HttpResponseView view;
        if (ParseResponsePayload(got->payload, &view) && view.req_id == want) {
          out->status = view.status;
          out->stale = view.stale;
          out->retry_after_us = view.retry_after_us;
          out->sum_ok = view.sum_ok;
          out->body = std::string(view.body);
          return true;
        }
        continue;
      }
      p.kernel().SysSleep(20'000);
    }
  }
  return false;
}

// Tentpole: requests carry an absolute deadline in the envelope; expired
// work is shed before any parse cost — no reply, one counter tick.
TEST(KvServerTest, ExpiredRequestsShedBeforeParse) {
  Rig rig(/*cpus=*/1);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 1;
  config.use_rings = true;
  config.preload = MakePreload(4, 48);
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  bool client_done = false;
  Process client(rig.kernel, [&](Process& p) {
    UdpSocket sock(p, ClientIface());
    ASSERT_EQ(sock.Bind(7999), Status::kOk);
    OwnedReply reply;
    // Warm up: the worker spends tens of millions of cycles formatting
    // its journaled fs before it binds the shard filter.
    ASSERT_TRUE(Rpc(p, sock, BuildRequestPayload(1, BuildGetRequest("k000"), "k000"),
                    &reply));
    EXPECT_EQ(reply.status, 200);
    EXPECT_FALSE(reply.stale);

    // Deadline cycle 1 is long past: the worker must shed it silently.
    const auto expired =
        BuildRequestPayload(2, BuildGetRequest("k001"), "k001", -1, /*deadline=*/1);
    ASSERT_EQ(sock.SendTo(1, config.port, expired), Status::kOk);

    // A live request behind it in the ring is still served (FIFO order
    // proves the expired one was seen first and dropped).
    ASSERT_TRUE(Rpc(p, sock, BuildRequestPayload(3, BuildGetRequest("k000"), "k000"),
                    &reply));
    EXPECT_EQ(reply.status, 200);

    // A generous future deadline is honored, not shed.
    const uint64_t future = p.kernel().SysGetCycles() + 500'000'000ull;
    ASSERT_TRUE(Rpc(p, sock, BuildRequestPayload(4, BuildGetRequest("k000"), "k000",
                                                 -1, future),
                    &reply));
    EXPECT_EQ(reply.status, 200);

    ASSERT_TRUE(Rpc(p, sock, BuildRequestPayload(5, BuildQuitRequest(), "",
                                                 /*shard_override=*/0),
                    &reply));
    EXPECT_EQ(reply.status, 200);
    (void)sock.Close();
    client_done = true;
  });
  ASSERT_TRUE(client.ok());
  rig.kernel.Run();

  EXPECT_TRUE(client_done);
  const WorkerStats& ws = server.worker_stats(0);
  EXPECT_EQ(ws.expired, 1u);
  EXPECT_EQ(ws.incarnations, 1u);
  EXPECT_TRUE(ws.done);
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

// Tentpole: a persistent journal-disk media fault mid-service flips the
// worker to read-only degraded mode — stale cache GETs, 503 PUTs with
// Retry-After — and a probe Sync resumes journaling when the fault
// clears, all inside one incarnation (restarting cannot fix a disk).
TEST(KvServerTest, JournalDiskErrorDegradesToReadOnlyAndRecovers) {
  Rig rig(/*cpus=*/1);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 1;
  config.use_rings = true;
  config.preload = MakePreload(4, 48);
  config.sync_every_puts = 1;  // Every PUT forces a durability point.
  // Big enough that no block is ever evicted: the same-size overwrite in
  // the fault window must be pure cache (a read miss would hit the dying
  // disk during Put and muddy which op trips the degraded entry).
  config.fs_cache_slots = 32;
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  bool client_done = false;
  Process client(rig.kernel, [&](Process& p) {
    UdpSocket sock(p, ClientIface());
    ASSERT_EQ(sock.Bind(7999), Status::kOk);
    OwnedReply reply;
    uint32_t id = 0;
    auto get = [&](const std::string& key) {
      EXPECT_TRUE(Rpc(p, sock, BuildRequestPayload(++id, BuildGetRequest(key), key),
                      &reply))
          << "GET " << key;
      return reply;
    };
    auto put = [&](const std::string& key, const std::string& value) {
      EXPECT_TRUE(Rpc(p, sock,
                      BuildRequestPayload(++id, BuildPutRequest(key, value), key),
                      &reply))
          << "PUT " << key;
      return reply;
    };

    // Healthy: preloaded reads are fresh, a new key journals to disk.
    EXPECT_EQ(get("k000").status, 200);
    EXPECT_FALSE(reply.stale);
    EXPECT_EQ(reply.body, MakeValue("k000", 0, 48));
    EXPECT_EQ(put("fresh0", MakeValue("fresh0", 0, 48)).status, 201);
    // Wait for the cadence Sync behind that PUT to land before opening
    // the fault window: replies flush before the durability point, so a
    // fixed sleep can arm the fault mid-checkpoint and make the *healthy*
    // PUT's Sync the degraded trigger instead of the overwrite's.
    while (server.worker_stats(0).syncs < 1) {
      p.kernel().SysSleep(500'000);
    }

    // Media fault: every non-barrier transfer for the next 40M cycles
    // fails like a dying platter (bounded retries included).
    const uint64_t window_end = rig.machine.clock().now() + 40'000'000ull;
    rig.disk.SetErrorWindow(rig.machine.clock().now(), window_end);

    // A same-size overwrite lands in the write-back cache (201) but the
    // forced Sync behind it hits the fault: the worker enters read-only
    // degraded mode with the dirty block pinned in cache.
    EXPECT_EQ(put("k000", MakeValue("k000", 1, 48)).status, 201);

    // Degraded reads: cached keys come back stale (the overwrite's value
    // — the cache is the freshest copy in the building), uncached keys
    // are 503 come-back-later, never 404 (the platter may hold them).
    EXPECT_EQ(get("k000").status, 200);
    EXPECT_TRUE(reply.stale);
    EXPECT_TRUE(reply.sum_ok);
    EXPECT_EQ(reply.body, MakeValue("k000", 1, 48));
    EXPECT_EQ(get("nevermore").status, 503);
    EXPECT_GT(reply.retry_after_us, 0u);

    // Degraded writes: refused outright, with a pacing hint.
    EXPECT_EQ(put("fresh1", MakeValue("fresh1", 0, 48)).status, 503);
    EXPECT_EQ(reply.body, "read-only");
    EXPECT_GT(reply.retry_after_us, 0u);

    // Outlast the fault (plus a failing-probe's worth of retry latency);
    // the worker's timed probe Sync lands and journaling resumes.
    while (rig.machine.clock().now() < window_end + 8'000'000ull) {
      p.kernel().SysSleep(1'000'000);
    }
    EXPECT_EQ(put("fresh2", MakeValue("fresh2", 0, 48)).status, 201);
    EXPECT_EQ(get("fresh2").status, 200);
    EXPECT_FALSE(reply.stale);
    EXPECT_EQ(get("nevermore").status, 404);  // Normal service: a real miss.

    EXPECT_TRUE(Rpc(p, sock, BuildRequestPayload(++id, BuildQuitRequest(), "",
                                                 /*shard_override=*/0),
                    &reply));
    EXPECT_EQ(reply.status, 200);
    (void)sock.Close();
    client_done = true;
  });
  ASSERT_TRUE(client.ok());
  rig.kernel.Run();

  EXPECT_TRUE(client_done);
  const WorkerStats& ws = server.worker_stats(0);
  EXPECT_EQ(ws.degraded_entries, 1u);
  EXPECT_EQ(ws.degraded_exits, 1u);
  EXPECT_GE(ws.stale_serves, 1u);
  EXPECT_GE(ws.shed_writes, 1u);
  EXPECT_EQ(ws.incarnations, 1u);  // Degradation is not the crash path.
  EXPECT_EQ(ws.store_crashes, 0u);
  EXPECT_TRUE(ws.done);
  EXPECT_EQ(server.supervisor().total_restarts(), 0u);
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

// Liveness of the event-driven client loop. A stub server answers only
// QUITs, so every data request is abandoned by the client's sweep — by TTL
// expiry or by an exhausted retry budget — the last of them with nothing
// else in flight. That pass changed state, so the loop must turn again and
// queue the QUITs rather than wait for a timer that no longer exists
// (which would sleep until the whole-run fail-safe). `arm`, if set, adds
// faults and environments of its own before the run; `client_counters`
// receives the client's per-env counters at its exit.
using ArmRun = std::function<std::unique_ptr<Process>(Rig&, const Process& client)>;
LoadStats RunAgainstQuitOnlyServer(const WorkloadConfig& workload, uint32_t* quits,
                                   const ArmRun& arm = nullptr,
                                   xtrace::EnvCounters* client_counters = nullptr) {
  Rig rig(/*cpus=*/2);
  constexpr uint16_t kPort = 7080;
  constexpr uint32_t kShards = 2;
  LoadGenTarget target;
  target.iface = ClientIface();
  target.server_ip = 1;
  target.server_port = kPort;
  target.workers = kShards;

  LoadStats stats;
  Process client(rig.kernel, [&](Process& p) {
    stats = RunLoadGen(p, target, workload);
    if (client_counters != nullptr) {
      *client_counters = p.kernel().SysEnvStats(p.id())->counters;
    }
  });
  Process server(rig.kernel, [&](Process& p) {
    UdpSocket sock(p, ServerIface());
    ASSERT_EQ(sock.Bind(kPort), Status::kOk);
    // Bounded, so a client that never sends its QUITs fails the test
    // instead of hanging it.
    const uint64_t give_up_at = p.machine().clock().now() + 2 * workload.deadline_cycles;
    while (*quits < kShards) {
      Result<Datagram> d = sock.Recv(/*blocking=*/false);
      if (!d.ok()) {
        if (sock.Wait(give_up_at) != Status::kOk) {
          break;
        }
        continue;
      }
      HttpRequest req;
      const std::span<const uint8_t> text(d->payload.data() + kReqHeaderBytes,
                                          d->payload.size() - kReqHeaderBytes);
      if (ParseHttpRequest(text, &req) != ParseError::kOk || req.method != Method::kQuit) {
        continue;  // Data requests are never answered.
      }
      const std::string resp_text = BuildHttpResponse(200, "bye");
      std::vector<uint8_t> resp(kRespHeaderBytes + resp_text.size());
      net::PutBe32(resp, 0, net::GetBe32(d->payload, 1));
      std::copy(resp_text.begin(), resp_text.end(), resp.begin() + kRespHeaderBytes);
      ASSERT_EQ(sock.SendTo(d->src_ip, d->src_port, resp), Status::kOk);
      ++*quits;
    }
    (void)sock.Close();
  });
  EXPECT_TRUE(client.ok());
  EXPECT_TRUE(server.ok());
  const std::unique_ptr<Process> extra = arm ? arm(rig, client) : nullptr;
  rig.kernel.Run();
  return stats;
}

WorkloadConfig AbandonedOpenLoop() {
  WorkloadConfig workload;
  workload.seed = 5;
  workload.requests = 24;
  workload.keys = 8;
  workload.warmup = false;  // Probes would never be answered either.
  workload.open_loop_interval_cycles = 50'000;
  workload.deadline_cycles = 40'000'000;
  return workload;
}

TEST(LoadGenLivenessTest, QuitsAfterTtlExpiresTheLastRequest) {
  WorkloadConfig workload = AbandonedOpenLoop();
  workload.request_ttl_cycles = 100'000;
  uint32_t quits = 0;
  const LoadStats stats = RunAgainstQuitOnlyServer(workload, &quits);
  EXPECT_EQ(stats.ttl_abandoned, workload.requests);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.acked, 2u);  // The two QUITs.
  EXPECT_EQ(quits, 2u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  // The data phase spans the offered arrivals plus one TTL, nothing more.
  EXPECT_LT(stats.elapsed_cycles, workload.deadline_cycles / 10);
}

TEST(LoadGenLivenessTest, QuitsAfterRetriesAbandonTheLastRequest) {
  WorkloadConfig workload = AbandonedOpenLoop();
  workload.max_retries = 1;
  uint32_t quits = 0;
  const LoadStats stats = RunAgainstQuitOnlyServer(workload, &quits);
  EXPECT_EQ(stats.gave_up, workload.requests);
  EXPECT_EQ(stats.retries, workload.requests);
  EXPECT_EQ(stats.ttl_abandoned, 0u);
  EXPECT_EQ(stats.acked, 2u);
  EXPECT_EQ(quits, 2u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_LT(stats.elapsed_cycles, workload.deadline_cycles / 10);
}

// A client whose filter is reclaimed while another environment takes its
// port cannot rebind: every repair fails, no frame can ring its doorbell,
// and its socket cannot wait. Each wait must then sleep out its deadline
// on the timer alone — the loop keeps its few sleeps per request and burns
// no CPU — rather than return at once and spin on the rebind. The squatter
// lets go after kHeld cycles; the client rebinds and quits as usual.
TEST(LoadGenLivenessTest, UnrebindableClientSleepsOutItsWaits) {
  constexpr uint64_t kReclaimAt = 300'000;
  constexpr uint64_t kHeld = 600'000;
  WorkloadConfig workload = AbandonedOpenLoop();
  workload.request_ttl_cycles = 100'000;
  workload.repair = true;
  uint64_t squatted_at = 0;
  const ArmRun squat = [&](Rig& rig, const Process& client) {
    aegis::PressurePlan plan;
    plan.ReclaimFiltersAt(kReclaimAt, client.id(), 1);
    rig.kernel.InstallPressurePlan(plan);
    return std::make_unique<Process>(rig.kernel, [&](Process& p) {
      UdpSocket sock(p, ClientIface());
      p.kernel().SysSleep(kReclaimAt - 10'000);
      // The client's binding makes an identical one fail until the reclaim.
      while (sock.Bind(workload.client_port) != Status::kOk) {
        p.kernel().SysSleep(100);
      }
      squatted_at = p.machine().clock().now();
      p.kernel().SysSleep(kHeld);
      (void)sock.Close();
    });
  };
  uint32_t quits = 0;
  xtrace::EnvCounters client;
  const LoadStats stats = RunAgainstQuitOnlyServer(workload, &quits, squat, &client);
  // The squatter took the port before the client's first repair could.
  ASSERT_GE(squatted_at, kReclaimAt);
  ASSERT_LT(squatted_at, kReclaimAt + 10'000);
  EXPECT_EQ(stats.ttl_abandoned, workload.requests);
  EXPECT_EQ(stats.acked, 2u);
  EXPECT_EQ(quits, 2u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_LT(stats.elapsed_cycles, workload.deadline_cycles / 10);
  // Timer-driven while unbound: about one wait per send, each preceded by
  // one failed rebind (a ring attempt allocates and frees its pages, so
  // ~40 syscalls). A client that spun on the rebind instead measured
  // 6.6k syscalls and 632k cycles on the CPU, more than kHeld itself;
  // waiting on the timer takes 1.0k and 108k.
  EXPECT_LE(client.syscalls[static_cast<uint32_t>(xtrace::Sys::kSleep)],
            2u * workload.requests);
  EXPECT_LE(client.syscalls_total(), 60u * workload.requests);
  EXPECT_LT(client.cycles_on_cpu, kHeld / 3);
}

// No nap-and-poll: the open-loop client waits for exactly two kinds of
// event — its next scheduled send (a timer) and a reply (the RX
// doorbell) — so it needs about two sleeps per request; polling on a
// fixed nap needed ~200. Workers that are not rescuing a sibling's shard
// block on their doorbell while serving; their one timed wait is the
// grace period after QUIT. The supervisor waits on deaths and exits
// alone, so a run with no restarts sees it sleep not once.
TEST(KvServerTest, OpenLoopClientWaitsOnEventsNotNaps) {
  Rig rig(/*cpus=*/2);
  KvServerConfig config;
  config.iface = ServerIface();
  config.workers = 2;
  config.use_rings = true;
  config.preload = MakePreload(16, 64);
  config.stride_slices_per_cpu = 400;
  KvServer server(rig.kernel, config);
  ASSERT_TRUE(server.ok());

  WorkloadConfig workload;
  workload.seed = 11;
  workload.requests = 200;
  workload.keys = 16;
  workload.put_per_mille = 500;
  workload.open_loop_interval_cycles = hw::kClockHz / 200;  // 200 r/s.
  // 100 ms: past a journaled PUT's sync, so every wake is a send or a reply.
  workload.retry_timeout_cycles = 2'500'000;
  LoadGenTarget target;
  target.iface = ClientIface();
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;

  const uint32_t kSleep = static_cast<uint32_t>(xtrace::Sys::kSleep);
  LoadStats stats;
  uint64_t client_sleeps = 0;
  uint64_t kernel_sleeps = 0;
  Process client(rig.kernel, [&](Process& p) {
    stats = RunLoadGen(p, target, workload);
    client_sleeps = p.kernel().SysEnvStats(p.id())->counters.syscalls[kSleep];
    kernel_sleeps = p.kernel().SysSyscallHist(kSleep)->count;
  });
  ASSERT_TRUE(client.ok());
  rig.kernel.Run();

  ASSERT_EQ(stats.latency.count, workload.requests);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_EQ(stats.retries, 0u);
  // Two waits per request plus the warm-up probes' waits, with room for a
  // wake that finds nothing new.
  EXPECT_LE(client_sleeps, 4 * stats.acked);
  uint64_t worker_sleeps = 0;
  for (const ChildStatus& child : server.supervisor().status()) {
    const uint64_t sleeps = rig.kernel.env_stats(child.env).counters.syscalls[kSleep];
    EXPECT_LE(sleeps, 1u) << child.name;
    worker_sleeps += sleeps;
  }
  EXPECT_EQ(server.supervisor().total_restarts(), 0u);
  EXPECT_EQ(rig.kernel.env_stats(server.supervisor().id()).counters.syscalls[kSleep], 0u);
  // Kernel-wide, nobody else sleeps.
  EXPECT_LE(kernel_sleeps, client_sleeps + worker_sleeps);
  EXPECT_TRUE(server.AllWorkersDone());
  EXPECT_EQ(rig.kernel.audit_failures(), 0u) << rig.kernel.first_audit_failure();
}

}  // namespace
}  // namespace xok::exos::server
