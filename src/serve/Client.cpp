//===- serve/Client.cpp ---------------------------------------------------===//

#include "serve/Client.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dcb;
using namespace dcb::serve;

Expected<Client> Client::connect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Failure(std::string("socket: ") + std::strerror(errno));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int Err = errno;
    ::close(Fd);
    return Failure("connect 127.0.0.1:" + std::to_string(Port) + ": " +
                   std::strerror(Err));
  }
  return Client(Fd);
}

Client::Client(Client &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)), Buffer(std::move(Other.Buffer)) {}

Client &Client::operator=(Client &&Other) noexcept {
  if (this != &Other) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = std::exchange(Other.Fd, -1);
    Buffer = std::move(Other.Buffer);
  }
  return *this;
}

Client::~Client() {
  if (Fd >= 0)
    ::close(Fd);
}

Error Client::sendBytes(std::string_view Bytes) {
  const char *Data = Bytes.data();
  size_t Len = Bytes.size();
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error::failure(std::string("send: ") + std::strerror(errno));
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return Error::success();
}

Expected<std::string> Client::recvLine() {
  for (;;) {
    size_t Nl = Buffer.find('\n');
    if (Nl != std::string::npos) {
      std::string Line = Buffer.substr(0, Nl);
      Buffer.erase(0, Nl + 1);
      return Line;
    }
    char Chunk[64 * 1024];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Failure(std::string("recv: ") + std::strerror(errno));
    }
    if (N == 0)
      return Failure("server closed the connection mid-response");
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

Expected<std::string> Client::roundTrip(const std::string &RequestLine) {
  if (Fd < 0)
    return Failure("client is not connected");
  std::string Framed = RequestLine;
  if (Framed.empty() || Framed.back() != '\n')
    Framed += '\n';
  if (Error E = sendBytes(Framed))
    return Failure(E.message());
  return recvLine();
}

Error Client::sendAll(const std::vector<std::string> &RequestLines) {
  if (Fd < 0)
    return Error::failure("client is not connected");
  // One buffered write for the whole batch: the server sees every frame
  // in as few reads as the kernel allows, and small requests don't pay a
  // syscall each.
  std::string Framed;
  size_t Total = 0;
  for (const std::string &L : RequestLines)
    Total += L.size() + 1;
  Framed.reserve(Total);
  for (const std::string &L : RequestLines) {
    Framed += L;
    if (L.empty() || L.back() != '\n')
      Framed += '\n';
  }
  return sendBytes(Framed);
}

Expected<std::vector<std::string>> Client::recvAll(size_t Count) {
  if (Fd < 0)
    return Failure("client is not connected");
  std::vector<std::string> Lines;
  Lines.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    Expected<std::string> Line = recvLine();
    if (!Line)
      return Failure("response " + std::to_string(I + 1) + " of " +
                     std::to_string(Count) + ": " + Line.message());
    Lines.push_back(Line.takeValue());
  }
  return Lines;
}

Expected<std::vector<std::string>>
Client::batch(const std::vector<std::string> &RequestLines) {
  if (Error E = sendAll(RequestLines))
    return Failure(E.message());
  return recvAll(RequestLines.size());
}
