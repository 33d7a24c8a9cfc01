// wsnex subcommands for the campaign service: the daemon itself (`wsnex
// serve`) and its client verbs (`submit`, `status`, `results`, `cancel`,
// `watch`). Split out of main.cpp so the CLI glue for the service layer
// lives in one place; flags go through the shared parse_flags (flags.hpp).
#pragma once

#include <string>
#include <vector>

namespace wsnex::cli {

int cmd_serve(const std::vector<std::string>& args);
int cmd_submit(const std::vector<std::string>& args);
int cmd_status(const std::vector<std::string>& args);
int cmd_results(const std::vector<std::string>& args);
int cmd_cancel(const std::vector<std::string>& args);
/// Live convergence view: `wsnex watch --port N JOB` long-polls the
/// daemon's event stream; `wsnex watch DIR` tails a campaign store's
/// progress.jsonl files. Exits when the job/campaign reaches a terminal
/// state.
int cmd_watch(const std::vector<std::string>& args);

}  // namespace wsnex::cli
