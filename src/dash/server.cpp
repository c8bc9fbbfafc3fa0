#include "dash/server.h"

#include <utility>

namespace mpdash {

DashServer::DashServer(MptcpEndpoint& endpoint, Video video)
    : video_(std::move(video)),
      http_(endpoint, [this](const HttpRequest& req) { return handle(req); }) {}

HttpResponse DashServer::handle(const HttpRequest& req) {
  if (req.target == manifest_url()) {
    HttpResponse resp;
    resp.headers.push_back({"Content-Type", "application/dash+xml"});
    resp.body = manifest_to_xml(video_);
    return resp;
  }
  int level = 0, chunk = 0;
  if (parse_chunk_url(req.target, level, chunk)) {
    if (level < 0 || level >= video_.level_count() || chunk < 0 ||
        chunk >= video_.chunk_count()) {
      return not_found();
    }
    HttpResponse resp;
    resp.headers.push_back({"Content-Type", "video/iso.segment"});
    resp.body_len = video_.chunk_size(level, chunk);
    return resp;
  }
  return not_found();
}

}  // namespace mpdash
