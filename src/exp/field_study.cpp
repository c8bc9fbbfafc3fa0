#include "exp/field_study.h"

#include <iterator>
#include <utility>

#include "analysis/rollup.h"
#include "analysis/spans.h"
#include "telemetry/trace_sink.h"

namespace mpdash {

FieldStudyResult run_field_study(const FieldStudyConfig& config,
                                 const Video& video) {
  // Built once, serially, and shared read-only with the workers: trace
  // expansion is the expensive deterministic part.
  std::vector<ScenarioConfig> nets;
  for (const LocationProfile& loc : config.locations) {
    nets.push_back(
        location_scenario(loc, video.total_duration() + seconds(120.0)));
  }
  std::vector<Scheme> schemes = {Scheme::kBaseline};
  schemes.insert(schemes.end(), config.schemes.begin(), config.schemes.end());

  Campaign<FieldStudyCell> campaign("field-study");
  for (std::size_t li = 0; li < nets.size(); ++li) {
    for (const std::string& algorithm : config.algorithms) {
      for (const Scheme scheme : schemes) {
        campaign.add(
            config.locations[li].name + "/" + algorithm + "/" +
                scheme_label(scheme),
            [&config, &video, &net = nets[li], &algorithm,
             scheme](RunContext& ctx) {
              FieldStudyCell cell{algorithm, scheme, {}, {}, {}};
              SessionConfig session;
              session.scheme = scheme;
              session.adaptation = algorithm;
              session.alpha = config.alpha;
              session.mptcp_scheduler = config.mptcp_scheduler;
              // The run's private telemetry only observes, so the result
              // is the same with or without it.
              SessionEnv env;
              if (config.metrics || config.attribution) {
                env.telemetry = &ctx.telemetry;
              }
              SpanModelBuilder spans;
              TypeFilterSink filter(&spans, span_model_trace_mask());
              if (config.attribution) ctx.telemetry.add_sink(&filter);
              Scenario scenario(net);
              cell.result =
                  run_streaming_session(scenario, video, session, env);
              if (config.metrics) {
                cell.metrics = ctx.telemetry.metrics()
                                   .snapshot(seconds(cell.result.session_s))
                                   .to_json();
              }
              if (config.attribution) {
                ctx.telemetry.remove_sink(&filter);
                SpanModel model = spans.finish();
                attribute_misses(&model, kWifiPathId);
                cell.attribution = attribution_series_csv(
                    model, /*bucket_s=*/10.0, ctx.key);
              }
              return cell;
            });
      }
    }
  }
  CampaignResult<FieldStudyCell> res = campaign.run({.jobs = config.jobs});

  FieldStudyResult out{{}, res.stats};
  auto cell = std::make_move_iterator(res.results.begin());
  for (const LocationProfile& loc : config.locations) {
    const auto end = cell + static_cast<std::ptrdiff_t>(
                                config.algorithms.size() * schemes.size());
    out.locations.push_back({loc, {cell, end}});
    cell = end;
  }
  return out;
}

}  // namespace mpdash
