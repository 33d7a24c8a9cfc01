// wsnex subcommands for the campaign service: the daemon itself (`wsnex
// serve`) and its client verbs (`submit`, `status`, `results`, `cancel`,
// `watch`). Split out of main.cpp so the CLI glue for the service layer
// lives in one place; the flag-value parsers main.cpp shares live here too.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace wsnex::cli {

/// Strict non-negative integer flag value; rejects "-1", "abc", "3x".
/// On a malformed value both parsers print why to stderr and return
/// nullopt.
std::optional<std::size_t> parse_count(const std::string& value,
                                       const char* flag);
/// Strict finite positive real flag value; rejects "inf", "nan", "0".
std::optional<double> parse_real(const std::string& value, const char* flag);

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
