// mvdb_shell — an interactive shell over the MarkoView engine.
//
// A small REPL for exploring MVDBs: generate the synthetic DBLP workload or
// define tables/views in datalog, compile, and query interactively.
//
//   $ ./build/tools/mvdb_shell
//   mvdb> load dblp 1000
//   mvdb> compile
//   mvdb> query Q(aid) :- Student(aid,y), Advisor(aid,a), Author(a,n), n = "author292".
//   mvdb> topk 3 Q(aid) :- Student(aid,y), Advisor(aid,a1), Author(a1,n), n = "author292".
//   mvdb> stats
//   mvdb> help
//
// Also usable non-interactively:  echo "..." | mvdb_shell  or
// mvdb_shell script.mv

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/index_io.h"
#include "query/parser.h"
#include "util/timer.h"

namespace mvdb {
namespace {

class Shell {
 public:
  /// Startup actions from CLI flags, executed before the REPL: generate the
  /// DBLP instance, then open a persisted index and/or save one.
  bool Startup(int dblp_authors, const std::string& load_path,
               const std::string& save_path) {
    if (dblp_authors > 0) {
      Load("dblp " + std::to_string(dblp_authors));
    }
    if (mvdb_ == nullptr && (!load_path.empty() || !save_path.empty())) {
      std::printf("--load/--save need a database; pass --dblp=N too\n");
      return false;
    }
    if (!load_path.empty()) {
      LoadIndex(load_path);
      if (!engine_->compiled()) return false;  // surface startup failures
    }
    if (!save_path.empty()) {
      SaveCmd(save_path);
      if (!engine_->compiled()) return false;
    }
    return true;
  }

  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::printf("mvdb shell — 'help' for commands\n");
    while (true) {
      if (interactive) {
        std::printf("mvdb> ");
        std::fflush(stdout);
      }
      if (!std::getline(in, line)) break;
      if (!Dispatch(line) ) break;
    }
    return 0;
  }

 private:
  /// Returns false to quit.
  bool Dispatch(const std::string& line) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd.empty() || cmd[0] == '%') return true;
    std::string rest;
    std::getline(is, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") return Help();
    if (cmd == "load") return Load(rest);
    if (cmd == "compile") return CompileCmd();
    if (cmd == "save") return SaveCmd(rest);
    if (cmd == "tables") return Tables();
    if (cmd == "stats") return Stats();
    if (cmd == "backend") return SetBackend(rest);
    if (cmd == "query") return QueryCmd(rest, 0);
    if (cmd == "topk") return TopK(rest);
    if (cmd == "upsert") return DeltaCmd(rest, /*is_delete=*/false);
    if (cmd == "delete") return DeltaCmd(rest, /*is_delete=*/true);
    std::printf("unknown command '%s'; try 'help'\n", cmd.c_str());
    return true;
  }

  bool Help() {
    std::printf(
        "  load dblp <n>      generate the synthetic DBLP MVDB (n authors)\n"
        "  compile            translate views and build the MV-index\n"
        "  save <path>        persist the compiled MV-index (compiles first)\n"
        "  load index <path>  open a persisted MV-index (mmap'd; instant)\n"
        "  tables             list tables with cardinalities\n"
        "  stats              MV-index statistics\n"
        "  backend <b>        cc | topdown | reuse | brute | safeplan\n"
        "  query <rule.>      evaluate a UCQ, e.g. query Q(x) :- R(x), S(x,y).\n"
        "  topk <k> <rule.>   top-k most probable answers\n"
        "  upsert <tbl> <v...> [w]  insert or reweight a base tuple (delta\n"
        "                     maintenance; values are ints or strings)\n"
        "  delete <tbl> <v...>      tombstone a base tuple (weight -> 0)\n"
        "  quit               leave\n");
    return true;
  }

  bool Load(const std::string& args) {
    std::istringstream is(args);
    std::string what;
    is >> what;
    if (what == "index") {
      std::string path;
      is >> path;
      return LoadIndex(path);
    }
    int n = 1000;
    is >> n;
    if (what != "dblp") {
      std::printf("usage: load dblp <n>  |  load index <path>\n");
      return true;
    }
    dblp::DblpConfig cfg;
    cfg.num_authors = n > 0 ? n : 1000;
    Timer t;
    dblp::DblpStats stats;
    auto mvdb = dblp::BuildDblpMvdb(cfg, &stats);
    if (!mvdb.ok()) {
      std::printf("error: %s\n", mvdb.status().ToString().c_str());
      return true;
    }
    mvdb_ = std::move(mvdb).value();
    engine_ = std::make_unique<QueryEngine>(mvdb_.get());
    std::printf("loaded DBLP(%d): %zu pubs, %zu Student^p, %zu Advisor^p, "
                "%zu Affiliation^p tuples in %.2f s\n",
                cfg.num_authors, stats.pubs, stats.student, stats.advisor,
                stats.affiliation, t.Seconds());
    return true;
  }

  bool CompileCmd() {
    if (!Ready(false)) return true;
    Timer t;
    const Status st = engine_->Compile();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return true;
    }
    std::printf("compiled in %.2f s: MV-index %zu nodes, %zu blocks, "
                "P0(not W) log-magnitude %.2f\n",
                t.Seconds(), engine_->index().size(),
                engine_->index().blocks().size(),
                engine_->index().ProbNotWScaled().LogMagnitude());
    return true;
  }

  bool SaveCmd(const std::string& path) {
    if (path.empty()) {
      std::printf("usage: save <path>\n");
      return true;
    }
    if (!Ready(true)) return true;
    Timer t;
    const Status st = engine_->SaveIndex(path);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return true;
    }
    std::printf("saved MV-index (%zu nodes, %zu blocks) to %s in %.2f s\n",
                engine_->index().size(), engine_->index().blocks().size(),
                path.c_str(), t.Seconds());
    return true;
  }

  bool LoadIndex(const std::string& path) {
    if (path.empty()) {
      std::printf("usage: load index <path>\n");
      return true;
    }
    if (mvdb_ == nullptr) {
      std::printf("load the database first (the index file holds the "
                  "compilation, not the data); try 'load dblp 1000'\n");
      return true;
    }
    // Stand the replacement up on the side and swap only after OpenIndex
    // succeeds: a bad file (stale, corrupt, foreign) reports its typed
    // Status and the current engine keeps serving untouched.
    auto candidate = std::make_unique<QueryEngine>(mvdb_.get());
    Timer t;
    const Status st = candidate->OpenIndex(path);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      if (engine_->compiled()) {
        std::printf("keeping the currently loaded index\n");
      }
      return true;
    }
    engine_ = std::move(candidate);
    std::printf("opened MV-index %s (mmap'd): %zu nodes, %zu blocks in "
                "%.3f s\n",
                path.c_str(), engine_->index().size(),
                engine_->index().blocks().size(), t.Seconds());
    return true;
  }

  bool Tables() {
    if (!Ready(false)) return true;
    const Database& db = mvdb_->db();
    for (const std::string& name : db.table_names()) {
      const Table* t = db.Find(name);
      std::printf("  %-20s %8zu tuples  %s\n", name.c_str(), t->size(),
                  t->probabilistic() ? "probabilistic" : "deterministic");
    }
    return true;
  }

  bool Stats() {
    if (!Ready(true)) return true;
    std::printf("  MV-index: %zu nodes, %zu blocks, width %zu\n",
                engine_->index().size(), engine_->index().blocks().size(),
                engine_->index().flat().Width());
    std::printf("  format: v%u, block_local annotations\n",
                kIndexFormatVersion);
    const MvIndexRepairStats& rs = engine_->index().last_repair_stats();
    if (rs.valid) {
      std::printf("  last repair: %zu dirty block%s, %zu nodes replayed — "
                  "replay %.3f ms, reprobe %.3f ms, products %.3f ms\n",
                  rs.dirty_blocks, rs.dirty_blocks == 1 ? "" : "s",
                  rs.replayed_nodes, rs.replay_seconds * 1e3,
                  rs.reprobe_seconds * 1e3, rs.products_seconds * 1e3);
    } else {
      std::printf("  last repair: none (no weight delta since compile/load)\n");
    }
    std::printf("  W inversion-free: %s\n",
                engine_->w_inversion_free() ? "yes" : "no");
    std::printf("  W: %s\n", ToString(mvdb_->W()).c_str());
    const PlanCacheStats pc = engine_->plan_cache_stats();
    std::printf("  plan cache: %zu/%zu entries, %llu hits, %llu misses "
                "(hit rate %.0f%%), %llu evictions\n",
                pc.size, pc.capacity,
                static_cast<unsigned long long>(pc.hits),
                static_cast<unsigned long long>(pc.misses),
                100.0 * pc.HitRate(),
                static_cast<unsigned long long>(pc.evictions));
    return true;
  }

  bool SetBackend(const std::string& name) {
    if (name == "cc") backend_ = Backend::kMvIndexCC;
    else if (name == "topdown") backend_ = Backend::kMvIndex;
    else if (name == "reuse") backend_ = Backend::kObddReuse;
    else if (name == "brute") backend_ = Backend::kBruteForce;
    else if (name == "safeplan") backend_ = Backend::kSafePlan;
    else {
      std::printf("backends: cc | topdown | reuse | brute | safeplan\n");
      return true;
    }
    std::printf("backend set to %s\n", name.c_str());
    return true;
  }

  bool QueryCmd(const std::string& text, size_t k) {
    if (!Ready(true)) return true;
    auto q = ParseUcq(text, &mvdb_->db().dict());
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return true;
    }
    const PlanCacheStats before = engine_->plan_cache_stats();
    Timer t;
    auto answers = (k == 0) ? engine_->Query(*q, backend_)
                            : engine_->QueryTopK(*q, k, backend_);
    const double ms = t.Millis();
    const PlanCacheStats after = engine_->plan_cache_stats();
    if (!answers.ok()) {
      std::printf("error: %s\n", answers.status().ToString().c_str());
      return true;
    }
    for (const auto& a : *answers) {
      std::string head;
      for (size_t i = 0; i < a.head.size(); ++i) {
        if (i) head += ", ";
        // Values are untyped int64s (dictionary ids and plain integers share
        // one namespace), so print the raw value; use the Author table to
        // resolve names in your queries instead.
        head += std::to_string(a.head[i]);
      }
      std::printf("  (%s)  P = %.6f\n", head.c_str(), a.prob);
    }
    const char* plan =
        after.hits > before.hits ? "cached plan" : "planned fresh";
    std::printf("%zu answer(s) in %.3f ms (%s; cache hit rate %.0f%%)\n",
                answers->size(), ms, plan, 100.0 * after.HitRate());
    return true;
  }

  /// Integer tokens pass through; anything else (optionally double-quoted)
  /// interns as a dictionary string — the same namespace query constants
  /// live in.
  Value ParseValue(const std::string& tok) {
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end != tok.c_str() && *end == '\0') return static_cast<Value>(v);
    std::string s = tok;
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
      s = s.substr(1, s.size() - 2);
    }
    return mvdb_->db().Str(s);
  }

  bool DeltaCmd(const std::string& args, bool is_delete) {
    if (!Ready(true)) return true;
    std::istringstream is(args);
    std::string table;
    is >> table;
    const Table* t = mvdb_->db().Find(table);
    if (t == nullptr) {
      std::printf("unknown table '%s'; see 'tables'\n", table.c_str());
      return true;
    }
    std::vector<std::string> toks;
    std::string tok;
    while (is >> tok) toks.push_back(tok);
    const size_t arity = t->arity();
    const size_t max_toks = arity + (is_delete ? 0 : 1);
    if (toks.size() < arity || toks.size() > max_toks) {
      std::printf("usage: %s %s <%zu values>%s\n",
                  is_delete ? "delete" : "upsert", table.c_str(), arity,
                  is_delete ? "" : " [weight]");
      return true;
    }
    DeltaOp op;
    op.table = table;
    for (size_t i = 0; i < arity; ++i) op.values.push_back(ParseValue(toks[i]));
    if (is_delete) {
      op.kind = DeltaOp::Kind::kDelete;
    } else {
      if (toks.size() > arity) op.weight = std::strtod(toks[arity].c_str(), nullptr);
      RowId row;
      op.kind = t->FindRow(op.values, &row) ? DeltaOp::Kind::kUpdateWeight
                                            : DeltaOp::Kind::kInsert;
    }
    Timer timer;
    const Status st = engine_->ApplyDelta({op});
    const double ms = timer.Millis();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      if (st.code() != StatusCode::kNotFound &&
          st.code() != StatusCode::kAlreadyExists &&
          st.code() != StatusCode::kInvalidArgument) {
        std::printf("the database may have advanced past the index; "
                    "'compile' on a fresh shell to rebuild\n");
      }
      return true;
    }
    const char* verb = is_delete ? "deleted"
                       : op.kind == DeltaOp::Kind::kInsert ? "inserted"
                                                           : "reweighted";
    std::printf("%s %s tuple in %.3f ms (index maintained incrementally)\n",
                verb, table.c_str(), ms);
    return true;
  }

  bool TopK(const std::string& args) {
    std::istringstream is(args);
    size_t k = 0;
    is >> k;
    std::string rest;
    std::getline(is, rest);
    if (k == 0) {
      std::printf("usage: topk <k> <rule.>\n");
      return true;
    }
    return QueryCmd(rest, k);
  }

  bool Ready(bool needs_compile) {
    if (mvdb_ == nullptr) {
      std::printf("no database loaded; try 'load dblp 1000'\n");
      return false;
    }
    if (needs_compile && !engine_->compiled()) {
      CompileCmd();
    }
    return true;
  }

  std::unique_ptr<Mvdb> mvdb_;
  std::unique_ptr<QueryEngine> engine_;
  Backend backend_ = Backend::kMvIndexCC;
};

}  // namespace
}  // namespace mvdb

int main(int argc, char** argv) {
  mvdb::Shell shell;
  // Flags handle index persistence non-interactively:
  //   mvdb_shell --dblp=1000 --save=dblp.mvidx      # compile once, persist
  //   mvdb_shell --dblp=1000 --load=dblp.mvidx      # instant mmap'd start
  std::string script;
  int dblp_authors = 0;
  std::string load_path, save_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dblp=", 7) == 0) {
      dblp_authors = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--load=", 7) == 0) {
      load_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--save=", 7) == 0) {
      save_path = argv[i] + 7;
    } else if (argv[i][0] != '-') {
      script = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: mvdb_shell [script.mv] [--dblp=N] "
                   "[--save=PATH] [--load=PATH]\n");
      return 2;
    }
  }
  if (!shell.Startup(dblp_authors, load_path, save_path)) return 1;
  if (!script.empty()) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script.c_str());
      return 1;
    }
    return shell.Run(file, /*interactive=*/false);
  }
  return shell.Run(std::cin, /*interactive=*/true);
}
