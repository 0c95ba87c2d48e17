// aspmt_served — the crash-safe exploration service (DESIGN.md §15).
//
//   aspmt_served serve   --socket PATH --journal DIR [--workers N]
//                        [--queue-depth N] [--shed-watermark N]
//                        [--tenant-quota N] [--max-job-threads N]
//                        [--checkpoint-interval SEC] [--rss-watermark-mb MB]
//                        [--drain-grace SEC] [--seed S]
//                        [--default-time-limit SEC] [--events-out FILE]
//                        [--metrics-out FILE]
//   aspmt_served submit  spec.txt --socket PATH [--tenant T] [--priority P]
//                        [--threads N] [--time-limit SEC]
//                        [--conflict-budget N] [--mem-limit-mb MB]
//                        [--certify] [--stream] [--no-wait]
//                        [--front-out FILE]
//   aspmt_served status  --socket PATH --job ID
//   aspmt_served result  --socket PATH --job ID [--timeout SEC]
//                        [--front-out FILE]
//   aspmt_served cancel  --socket PATH --job ID
//   aspmt_served stats   --socket PATH
//   aspmt_served drain   --socket PATH
//
// Exit codes (submit/result): 0 job completed with a complete front,
// 3 terminal but partial (deadline/cancel/shed/quarantine), 5 rejected at
// admission ("rejected: overload" and friends — structured, never a hang).
// Every command exits 2 on a usage error, such as a malformed flag value or
// a flag the command does not read.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"

#include "args.hpp"

namespace {

using namespace aspmt;

using cli::Args;

int usage() {
  std::cerr <<
      "usage:\n"
      "  aspmt_served serve  --socket PATH --journal DIR [--workers N]\n"
      "          [--queue-depth N] [--shed-watermark N] [--tenant-quota N]\n"
      "          [--max-job-threads N] [--checkpoint-interval SEC]\n"
      "          [--rss-watermark-mb MB] [--drain-grace SEC] [--seed S]\n"
      "          [--default-time-limit SEC] [--events-out FILE]\n"
      "          [--metrics-out FILE]\n"
      "  aspmt_served submit spec.txt --socket PATH [--tenant T]\n"
      "          [--priority P] [--threads N] [--time-limit SEC]\n"
      "          [--conflict-budget N] [--mem-limit-mb MB] [--certify]\n"
      "          [--stream] [--no-wait] [--front-out FILE]\n"
      "  aspmt_served status --socket PATH --job ID\n"
      "  aspmt_served result --socket PATH --job ID [--timeout SEC]\n"
      "          [--front-out FILE]\n"
      "  aspmt_served cancel --socket PATH --job ID\n"
      "  aspmt_served stats  --socket PATH\n"
      "  aspmt_served drain  --socket PATH\n";
  return 2;
}

/// SIGTERM/SIGINT ask for a graceful drain; the main loop polls the flag
/// (only atomics in the handler).
std::atomic<int> g_drain_requested{0};

extern "C" void handle_drain_signal(int) { g_drain_requested.store(1); }

int cmd_serve(const Args& args) {
  const std::string socket_path = args.get("socket", "");
  const std::string journal_dir = args.get("journal", "");
  if (socket_path.empty() || journal_dir.empty()) {
    std::cerr << "serve requires --socket and --journal\n";
    return 2;
  }

  obs::MetricsRegistry metrics;
  std::unique_ptr<std::ofstream> events_file;
  std::unique_ptr<obs::NdjsonExporter> events;
  if (args.flag("events-out")) {
    events_file =
        std::make_unique<std::ofstream>(args.get("events-out", ""));
    if (!*events_file) {
      std::cerr << "cannot write '" << args.get("events-out", "") << "'\n";
      return 2;
    }
    events = std::make_unique<obs::NdjsonExporter>(*events_file);
  }

  serve::ServerOptions opts;
  opts.journal_dir = journal_dir;
  opts.workers = args.integer<std::size_t>("workers", 2);
  opts.max_queue_depth = args.integer<std::size_t>("queue-depth", 64);
  opts.shed_watermark = args.integer<std::size_t>("shed-watermark", 48);
  opts.rss_watermark_mb = args.integer<std::size_t>("rss-watermark-mb", 0);
  opts.tenant_quota = args.integer<std::size_t>("tenant-quota", 8);
  opts.max_job_threads = args.integer<std::size_t>("max-job-threads", 4);
  opts.checkpoint_interval_seconds = args.num("checkpoint-interval", 0.5);
  opts.default_time_limit_seconds = args.num("default-time-limit", 0.0);
  opts.drain_grace_seconds = args.num("drain-grace", 5.0);
  opts.seed = args.integer<std::uint64_t>("seed", 1);
  opts.sink = events.get();
  opts.metrics = &metrics;

  serve::Server server(std::move(opts));
  const std::vector<std::string> recovery = server.start();
  for (const std::string& diag : recovery) {
    std::cerr << "recovery: " << diag << "\n";
  }

  serve::SocketEndpoint endpoint(server, socket_path,
                                 [] { g_drain_requested.store(1); });
  const std::string err = endpoint.start();
  if (!err.empty()) {
    std::cerr << "aspmt_served: " << err << "\n";
    server.drain();
    return 1;
  }

  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);

  // The smoke tests wait for this line before connecting.
  std::cout << "aspmt_served: listening on " << socket_path << std::endl;

  while (g_drain_requested.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::cout << "aspmt_served: draining" << std::endl;
  server.drain();
  endpoint.stop();

  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << metrics.to_json();
  }
  std::cout << "aspmt_served: drained" << std::endl;
  return 0;
}

/// One point per line, objectives space-separated — the same .front golden
/// format `aspmt_dse explore --front-out` writes.
std::string front_json_to_text(const serve::Json& front) {
  std::ostringstream out;
  for (const serve::Json& point : front.items()) {
    const auto& values = point.items();
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? " " : "") << values[i].as_int();
    }
    out << "\n";
  }
  return out.str();
}

/// Shared terminal-status plumbing for submit/result: report, optionally
/// write the front, map the state to the exit-code contract.
int finish_job(const Args& args, const serve::Json& status) {
  const std::string state = status.get("state").as_string();
  std::cout << "job " << status.get("job").as_string() << ": " << state;
  if (status.has("complete")) {
    std::cout << (status.get("complete").as_bool() ? " (complete" : " (partial");
    if (status.get("certified").as_bool()) std::cout << ", certified";
    std::cout << ", " << status.get("front").items().size() << " points)";
  }
  std::cout << "\n";
  if (status.has("error") && !status.get("error").as_string().empty()) {
    std::cerr << "error: " << status.get("error").as_string() << "\n";
  }
  const std::string front_path = args.get("front-out", "");
  if (!front_path.empty() && status.has("front")) {
    std::ofstream out(front_path);
    if (!out) {
      std::cerr << "cannot write '" << front_path << "'\n";
      return 1;
    }
    out << front_json_to_text(status.get("front"));
    std::cout << "wrote front to " << front_path << "\n";
  }
  if (state == "completed" && status.get("complete").as_bool()) return 0;
  return 3;
}

int cmd_submit(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "submit requires a spec file\n";
    return 2;
  }
  std::ifstream in(args.positional.front(), std::ios::binary);
  if (!in) {
    std::cerr << "cannot read '" << args.positional.front() << "'\n";
    return 2;
  }
  std::ostringstream spec;
  spec << in.rdbuf();

  serve::Client client;
  std::string err = client.connect(args.get("socket", ""));
  if (!err.empty()) {
    std::cerr << err << "\n";
    return 1;
  }

  const bool stream = args.flag("stream");
  serve::Json req = serve::Json::object();
  req.set("op", "submit");
  req.set("spec", spec.str());
  if (args.flag("tenant")) req.set("tenant", args.get("tenant", ""));
  req.set("priority", args.integer<std::int64_t>("priority", 0));
  req.set("threads", args.integer<std::size_t>("threads", 1));
  req.set("time_limit", args.num("time-limit", 0.0));
  req.set("conflicts", args.integer<std::size_t>("conflict-budget", 0));
  req.set("mem_mb", args.integer<std::size_t>("mem-limit-mb", 0));
  req.set("certify", args.flag("certify"));
  req.set("stream", stream);

  serve::Json ack;
  err = client.request(req, ack);
  if (!err.empty()) {
    std::cerr << err << "\n";
    return 1;
  }
  if (!ack.get("ok").as_bool()) {
    // The structured admission outcome: "rejected: overload" is the
    // contract scripts grep for (never a hang, never a bare disconnect).
    std::cout << "rejected: " << ack.get("rejected").as_string() << "\n";
    if (ack.has("detail")) {
      std::cerr << ack.get("detail").as_string() << "\n";
    }
    return 5;
  }
  const std::string job_id = ack.get("job").as_string();
  std::cout << "accepted " << job_id << "\n";
  if (args.flag("no-wait")) return 0;

  if (stream) {
    // Events arrive on this connection until the terminal "done" line.
    for (;;) {
      std::string line;
      err = client.read_line(line);
      if (!err.empty()) {
        std::cerr << (err == "eof" ? "daemon closed the stream" : err) << "\n";
        return 3;
      }
      serve::Json event;
      if (!serve::Json::parse(line, event).empty()) continue;
      std::cout << line << "\n";
      if (event.get("event").as_string() == "done") {
        return finish_job(args, event);
      }
    }
  }

  serve::Json wait_req = serve::Json::object();
  wait_req.set("op", "result");
  wait_req.set("job", job_id);
  serve::Json status;
  err = client.request(wait_req, status);
  if (!err.empty()) {
    std::cerr << err << "\n";
    return 1;
  }
  if (!status.get("ok").as_bool()) {
    std::cerr << status.get("error").as_string() << "\n";
    return 1;
  }
  return finish_job(args, status);
}

int cmd_simple(const Args& args, const std::string& op) {
  serve::Client client;
  std::string err = client.connect(args.get("socket", ""));
  if (!err.empty()) {
    std::cerr << err << "\n";
    return 1;
  }
  serve::Json req = serve::Json::object();
  req.set("op", op);
  if (args.flag("job")) req.set("job", args.get("job", ""));
  if (op == "result") {
    const double timeout = args.num("timeout", 0.0);
    if (timeout > 0.0) req.set("timeout", timeout);
  }
  serve::Json response;
  err = client.request(req, response);
  if (!err.empty()) {
    std::cerr << err << "\n";
    return 1;
  }
  if (!response.get("ok").as_bool() && response.has("error")) {
    std::cerr << response.get("error").as_string() << "\n";
    return 1;
  }
  if (op == "status" || op == "result") {
    const std::string state = response.get("state").as_string();
    if (state == "queued" || state == "running") {
      std::cout << "job " << response.get("job").as_string() << ": " << state
                << " (attempt " << response.get("attempts").as_int() << ")\n";
      return op == "result" ? 3 : 0;  // result timed out short of terminal
    }
    const int rc = finish_job(args, response);
    return op == "status" ? 0 : rc;
  }
  std::cout << response.dump() << "\n";
  return 0;
}

/// Every subcommand with the flags it reads.
const std::vector<cli::Command>& commands() {
  static const std::vector<cli::Command> kCommands = {
      {"serve",
       {"socket", "journal", "events-out", "workers", "queue-depth",
        "shed-watermark", "rss-watermark-mb", "tenant-quota",
        "max-job-threads", "checkpoint-interval", "default-time-limit",
        "drain-grace", "seed", "metrics-out"},
       cmd_serve},
      {"submit",
       {"socket", "tenant", "priority", "threads", "time-limit",
        "conflict-budget", "mem-limit-mb", "certify", "stream", "no-wait",
        "front-out"},
       cmd_submit},
      {"status", {"socket", "job", "front-out"},
       [](const Args& a) { return cmd_simple(a, "status"); }},
      {"result", {"socket", "job", "timeout", "front-out"},
       [](const Args& a) { return cmd_simple(a, "result"); }},
      {"cancel", {"socket", "job"},
       [](const Args& a) { return cmd_simple(a, "cancel"); }},
      {"stats", {"socket"}, [](const Args& a) { return cmd_simple(a, "stats"); }},
      {"drain", {"socket"}, [](const Args& a) { return cmd_simple(a, "drain"); }},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = cli::parse_args(argc, argv);
  const auto it =
      std::find_if(commands().begin(), commands().end(),
                   [&](const cli::Command& c) { return c.name == cmd; });
  if (it == commands().end()) return usage();
  if (const std::string flag = cli::unread_flag(args, *it); !flag.empty()) {
    std::cerr << "error: unknown flag " << flag << " for " << cmd << "\n";
    return 2;
  }
  try {
    return it->run(args);
  } catch (const cli::BadFlagValue& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
