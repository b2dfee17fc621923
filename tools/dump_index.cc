// Copyright 2026 The MarkoView Authors.
//
// MV-index inspector. Two modes:
//
// Build mode (the original build-parity diagnostic): compiles the DBLP
// MV-index and dumps everything the offline pipeline produced — block keys,
// chain roots, level ranges, extended-range block probabilities, the full
// flat layout node by node, and P0(NOT W). Two dumps can be diffed to
// verify that builds are bit-identical, e.g. the serial vs the sharded
// pipeline, or the same build across commits:
//
//   dump_index 1500 --threads=1 > a.txt
//   dump_index 1500 --threads=4 > b.txt
//   diff a.txt b.txt            # must be empty
//
// Optionally persists the compiled index: dump_index 1500 --save=PATH
//
// File mode (--load=PATH): routes through the persistent-format reader
// (mvindex/index_io.*) instead of compiling — prints the header (format
// version + annotation scheme), the section table, per-block stats, and
// with --verify recomputes every section checksum, exiting non-zero on any
// mismatch (the CI integrity gate). --quiet suppresses the per-node dump
// in either mode.
//
//   dump_index --load=dblp.mvidx --verify         # exit 0 iff intact
//
// A file of another format generation fails to open with a message that
// says to rebuild it (build mode with --save=PATH does that).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/index_io.h"

namespace {

const char* kSectionNames[mvdb::kNumIndexSections] = {
    "var_order", "level_probs", "levels",    "edges",
    "prob_under", "block_dir",  "key_blob",
};

const char* SchemeName(uint32_t scheme) {
  switch (scheme) {
    case mvdb::kAnnotationSchemeBlockLocal: return "block_local";
    default: return "unknown";
  }
}

/// The shared tail of both modes: block directory + flat node dump.
void DumpIndex(const mvdb::MvIndex& idx, bool quiet) {
  using mvdb::FlatId;
  using mvdb::MvBlock;
  std::printf("flat_size %zu root %d\n", idx.flat().size(), idx.flat().root());
  std::printf("prob_not_w %s\n", idx.ProbNotWScaled().ToString().c_str());
  for (size_t i = 0; i < idx.blocks().size(); ++i) {
    const MvBlock& b = idx.blocks()[i];
    std::printf("block %s %d %d %d %s\n", idx.block_key(i).c_str(),
                b.chain_root, b.first_level, b.last_level,
                b.prob.ToString().c_str());
  }
  if (quiet) return;
  for (size_t u = 0; u < idx.flat().size(); ++u) {
    const FlatId id = static_cast<FlatId>(u);
    std::printf("n %zu %d %d %d %s\n", u, idx.flat().level(id),
                idx.flat().lo(id), idx.flat().hi(id),
                idx.flat().prob_under_scaled(id).ToString().c_str());
  }
}

int FileMode(const std::string& path, bool verify, bool quiet) {
  using namespace mvdb;
  auto reader = IndexFileReader::OpenMapped(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const IndexFileHeader& h = reader->header();
  std::printf("file %s\n", path.c_str());
  std::printf("format_version %u\n", h.format_version);
  std::printf("annotation_scheme %u (%s)\n", h.annotation_scheme,
              SchemeName(h.annotation_scheme));
  std::printf("num_nodes %" PRIu64 " num_levels %" PRIu64
              " num_blocks %" PRIu64 " root %" PRId64 "\n",
              h.num_nodes, h.num_levels, h.num_blocks, h.root);
  std::printf("var_order_digest %016" PRIx64 " file_bytes %" PRIu64 "\n",
              h.var_order_digest, h.file_bytes);
  for (uint32_t s = 0; s < kNumIndexSections; ++s) {
    const SectionEntry& e = reader->section(static_cast<IndexSection>(s));
    std::printf("section %-11s offset %" PRIu64 " length %" PRIu64
                " checksum %016" PRIx64 "\n",
                kSectionNames[s], e.offset, e.length, e.checksum);
  }
  if (verify) {
    const Status st = reader->VerifyChecksums();
    if (!st.ok()) {
      std::fprintf(stderr, "VERIFY FAILED: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("verify OK (all section checksums match)\n");
  }

  // Load against a manager reconstructed from the file's own order, so the
  // dump works without the source database (block/flat dump only needs the
  // arrays, and the digest check is a self-check here by construction).
  auto order = ReadIndexVarOrder(path);
  if (!order.ok()) {
    std::fprintf(stderr, "%s\n", order.status().ToString().c_str());
    return 1;
  }
  BddManager mgr(std::move(order).value());
  auto idx = MvIndex::LoadMapped(path, &mgr);
  if (!idx.ok()) {
    std::fprintf(stderr, "%s\n", idx.status().ToString().c_str());
    return 1;
  }
  DumpIndex(**idx, quiet);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvdb;
  dblp::DblpConfig cfg;
  cfg.include_affiliation = true;
  cfg.num_authors = 1500;
  CompileOptions copts;
  std::string save_path;
  std::string load_path;
  bool verify = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      copts.num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
               argv[i + 1][0] != '-') {
      copts.num_threads = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--save=", 7) == 0) {
      save_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--load=", 7) == 0) {
      load_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] != '-') {
      cfg.num_authors = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\n"
                   "usage: dump_index [authors] [--threads=N] [--save=PATH]\n"
                   "       dump_index --load=PATH [--verify] [--quiet]\n",
                   argv[i]);
      return 2;
    }
  }

  if (!load_path.empty()) {
    return FileMode(load_path, verify, quiet);
  }

  auto mv = dblp::BuildDblpMvdb(cfg, nullptr);
  if (!mv.ok()) {
    std::fprintf(stderr, "%s\n", mv.status().ToString().c_str());
    return 1;
  }
  QueryEngine engine(mv->get());
  auto st = engine.Compile(copts);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (!save_path.empty()) {
    const Status saved = engine.SaveIndex(save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved index to %s\n", save_path.c_str());
  }
  // The in-memory compile is by construction the current format generation.
  std::printf("format_version %u\n", kIndexFormatVersion);
  std::printf("annotation_scheme %u (%s)\n", kAnnotationSchemeBlockLocal,
              SchemeName(kAnnotationSchemeBlockLocal));
  DumpIndex(engine.index(), quiet);
  return 0;
}
